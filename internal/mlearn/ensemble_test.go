package mlearn

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mathx"
)

// xorDataset is not linearly separable; boosted stumps and forests must beat
// a linear model on it.
func xorDataset(seed int64, n int) *Dataset {
	rng := mathx.NewRand(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		x[i] = []float64{a, b}
		if (a > 0.5) != (b > 0.5) {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	d, _ := NewDataset(x, y)
	return d
}

func TestAdaBoostXOR(t *testing.T) {
	d := xorDataset(1, 400)
	// Depth-2 weak trees can carve the XOR quadrants.
	ab := &AdaBoost{Rounds: 40, StumpDepth: 2}
	if err := ab.Fit(d); err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(ab, d)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("AdaBoost XOR accuracy = %v, want ≥ 0.95", acc)
	}
}

func TestAdaBoostBeatsSingleStump(t *testing.T) {
	d := xorDataset(2, 300)
	stump := &Tree{MaxDepth: 1, MinLeaf: 1, FeatureFrac: 1}
	if err := stump.Fit(d); err != nil {
		t.Fatal(err)
	}
	sAcc, _ := Accuracy(stump, d)
	ab := &AdaBoost{Rounds: 30, StumpDepth: 2}
	if err := ab.Fit(d); err != nil {
		t.Fatal(err)
	}
	bAcc, _ := Accuracy(ab, d)
	if !(bAcc > sAcc) {
		t.Fatalf("boosting did not help: stump %v vs boost %v", sAcc, bAcc)
	}
}

func TestAdaBoostPerfectWeakLearnerStops(t *testing.T) {
	// Separable by one threshold → first stump is perfect → stop early.
	d, _ := NewDataset([][]float64{{0}, {1}, {2}, {3}}, []float64{-1, -1, 1, 1})
	ab := NewAdaBoost(50)
	if err := ab.Fit(d); err != nil {
		t.Fatal(err)
	}
	if ab.Len() != 1 {
		t.Fatalf("perfect stump should stop boosting, rounds fitted = %d", ab.Len())
	}
	if acc, _ := Accuracy(ab, d); acc != 1 {
		t.Fatal("perfect data should be perfectly classified")
	}
}

func TestAdaBoostErrors(t *testing.T) {
	ab := NewAdaBoost(5)
	if err := ab.Fit(&Dataset{}); !errors.Is(err, ErrEmptyDataset) {
		t.Fatalf("empty fit err = %v", err)
	}
	if _, err := ab.Score([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("unfitted score err = %v", err)
	}
	bad, _ := NewDataset([][]float64{{1}}, []float64{2})
	if err := ab.Fit(bad); !errors.Is(err, ErrBadShape) {
		t.Fatalf("bad label err = %v", err)
	}
	ok, _ := NewDataset([][]float64{{0}, {1}}, []float64{-1, 1})
	if err := ab.Fit(ok); err != nil {
		t.Fatal(err)
	}
	if _, err := ab.Score([]float64{1, 2}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("dim mismatch err = %v", err)
	}
}

func TestForestXOR(t *testing.T) {
	d := xorDataset(3, 400)
	f := NewForest(30)
	if err := f.Fit(d); err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(f, d)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("forest XOR accuracy = %v, want ≥ 0.95", acc)
	}
}

func TestForestRegression(t *testing.T) {
	rng := mathx.NewRand(4)
	n := 500
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = []float64{rng.Float64() * 2, rng.Float64() * 2}
		y[i] = x[i][0]*x[i][1] + 0.05*rng.NormFloat64()
	}
	d, _ := NewDataset(x, y)
	f := NewForest(40)
	if err := f.Fit(d); err != nil {
		t.Fatal(err)
	}
	preds := make([]float64, n)
	for i := range x {
		preds[i], _ = f.Predict(x[i])
	}
	if e := rmse(preds, y); e > 0.25 {
		t.Fatalf("forest RMSE = %v, want < 0.25", e)
	}
}

func TestForestDeterminism(t *testing.T) {
	d := xorDataset(5, 200)
	a, b := NewForest(10), NewForest(10)
	if err := a.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x := []float64{float64(i) / 20, float64(19-i) / 20}
		pa, _ := a.Predict(x)
		pb, _ := b.Predict(x)
		if pa != pb {
			t.Fatal("same seed must give identical forests")
		}
	}
}

func TestForestErrors(t *testing.T) {
	f := NewForest(3)
	if err := f.Fit(&Dataset{}); !errors.Is(err, ErrEmptyDataset) {
		t.Fatalf("empty fit err = %v", err)
	}
	if _, err := f.Predict([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("unfitted predict err = %v", err)
	}
	d, _ := NewDataset([][]float64{{1, 2}, {2, 3}}, []float64{1, -1})
	if err := f.Fit(d); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Predict([]float64{1}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("dim mismatch err = %v", err)
	}
	if c, err := f.Classify([]float64{1, 2}); err != nil || math.Abs(c) != 1 {
		t.Fatalf("Classify = %v, %v", c, err)
	}
}
