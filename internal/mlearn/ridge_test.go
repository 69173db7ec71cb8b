package mlearn

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func TestRidgeRecoversLinearModel(t *testing.T) {
	rng := mathx.NewRand(1)
	n := 200
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		y[i] = 3*x[i][0] - 2*x[i][1] + 5 + 0.01*rng.NormFloat64()
	}
	d, _ := NewDataset(x, y)
	r := NewRidge(1e-6)
	if err := r.Fit(d); err != nil {
		t.Fatal(err)
	}
	w := r.Weights()
	if math.Abs(w[0]-3) > 0.05 || math.Abs(w[1]+2) > 0.05 {
		t.Fatalf("weights = %v, want ≈[3 -2]", w)
	}
	if b, _ := r.Predict([]float64{0, 0}); math.Abs(b-5) > 0.2 {
		t.Fatalf("intercept = %v, want ≈5", b)
	}
	pred, err := r.Predict([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred-6) > 0.2 {
		t.Fatalf("Predict = %v, want ≈6", pred)
	}
}

func TestRidgeNoIntercept(t *testing.T) {
	d, _ := NewDataset([][]float64{{1}, {2}, {3}}, []float64{2, 4, 6})
	r := &Ridge{Lambda: 0, FitIntercept: false}
	if err := r.Fit(d); err != nil {
		t.Fatal(err)
	}
	if w := r.Weights(); math.Abs(w[0]-2) > 1e-9 {
		t.Fatalf("weights = %v, want [2]", w)
	}
	if b, _ := r.Predict([]float64{0}); b != 0 {
		t.Fatalf("intercept = %v, want 0", b)
	}
}

func TestRidgeErrors(t *testing.T) {
	r := NewRidge(0.1)
	if err := r.Fit(&Dataset{}); !errors.Is(err, ErrEmptyDataset) {
		t.Fatalf("empty fit err = %v", err)
	}
	if _, err := r.Predict([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("unfitted predict err = %v", err)
	}
	d, _ := NewDataset([][]float64{{1, 2}}, []float64{1})
	// Rank-deficient with λ>0 is fine.
	if err := r.Fit(d); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Predict([]float64{1}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("dim mismatch err = %v", err)
	}
}

// Property: larger lambda never increases the weight norm on a fixed dataset.
func TestRidgeShrinkageProperty(t *testing.T) {
	rng := mathx.NewRand(9)
	n := 50
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		y[i] = x[i][0] + 2*x[i][1] + rng.NormFloat64()*0.1
	}
	d, _ := NewDataset(x, y)
	f := func(raw float64) bool {
		l1 := math.Abs(math.Mod(raw, 10))
		l2 := l1 + 1
		r1, r2 := NewRidge(l1), NewRidge(l2)
		if r1.Fit(d) != nil || r2.Fit(d) != nil {
			return false
		}
		w1, w2 := r1.Weights(), r2.Weights()
		return math.Sqrt(mathx.Dot(w2, w2)) <= math.Sqrt(mathx.Dot(w1, w1))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
