package mlearn

import (
	"errors"
	"testing"

	"repro/internal/mathx"
)

// linearlySeparable builds a 2-D dataset split by the line x0 + x1 = 0 with
// the given margin.
func linearlySeparable(seed int64, n int, margin float64) *Dataset {
	rng := mathx.NewRand(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		lbl := 1.0
		if i%2 == 0 {
			lbl = -1
		}
		// Place points on the correct side, `margin` away from the boundary.
		base := mathx.Uniform(rng, margin, margin+3) * lbl
		x[i] = []float64{base/2 + rng.NormFloat64()*0.05, base/2 + rng.NormFloat64()*0.05}
		y[i] = lbl
	}
	d, _ := NewDataset(x, y)
	return d
}

func TestSVMSeparable(t *testing.T) {
	d := linearlySeparable(1, 200, 0.5)
	svm := NewSVM()
	if err := svm.Fit(d); err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(svm, d)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.98 {
		t.Fatalf("separable accuracy = %v, want ≥ 0.98", acc)
	}
}

func TestSVMGeneralizes(t *testing.T) {
	train := linearlySeparable(2, 300, 0.3)
	test := linearlySeparable(3, 100, 0.3)
	svm := NewSVM()
	if err := svm.Fit(train); err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(svm, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("held-out accuracy = %v, want ≥ 0.95", acc)
	}
}

func TestSVMDeterministicTraining(t *testing.T) {
	d := linearlySeparable(4, 100, 0.5)
	a, b := NewSVM(), NewSVM()
	if err := a.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(d); err != nil {
		t.Fatal(err)
	}
	wa, wb := a.Weights(), b.Weights()
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatal("same seed must give identical weights")
		}
	}
}

func TestSVMLabelValidation(t *testing.T) {
	d, _ := NewDataset([][]float64{{1}}, []float64{0})
	if err := NewSVM().Fit(d); !errors.Is(err, ErrBadShape) {
		t.Fatalf("bad label err = %v", err)
	}
}

func TestSVMErrors(t *testing.T) {
	svm := NewSVM()
	if err := svm.Fit(&Dataset{}); !errors.Is(err, ErrEmptyDataset) {
		t.Fatalf("empty fit err = %v", err)
	}
	if _, err := svm.Score([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("unfitted score err = %v", err)
	}
	d := linearlySeparable(5, 20, 0.5)
	if err := svm.Fit(d); err != nil {
		t.Fatal(err)
	}
	if _, err := svm.Score([]float64{1}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("dim mismatch err = %v", err)
	}
}

func TestSVMProbabilityMonotone(t *testing.T) {
	d := linearlySeparable(6, 200, 0.5)
	svm := NewSVM()
	if err := svm.Fit(d); err != nil {
		t.Fatal(err)
	}
	pNeg, err := svm.Probability([]float64{-3, -3})
	if err != nil {
		t.Fatal(err)
	}
	pPos, err := svm.Probability([]float64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !(pPos > 0.5 && pNeg < 0.5 && pPos > pNeg) {
		t.Fatalf("probabilities: pos=%v neg=%v", pPos, pNeg)
	}
	if pPos < 0 || pPos > 1 || pNeg < 0 || pNeg > 1 {
		t.Fatalf("probabilities out of [0,1]: %v %v", pPos, pNeg)
	}
}

// TestSVMDivergedFitIsRejected: a step far too large on large-magnitude
// features overflows the weights; Fit must report it and leave the SVM
// unfitted rather than publish NaN or ±Inf weights.
func TestSVMDivergedFitIsRejected(t *testing.T) {
	d, err := NewDataset([][]float64{{1e150, -1e150}, {-1e150, 1e150}}, []float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	svm := &SVM{C: 1e10, Epochs: 50, LearningRate: 1e3, Seed: 1}
	if err := svm.Fit(d); !errors.Is(err, ErrDiverged) {
		t.Fatalf("Fit err = %v, want ErrDiverged", err)
	}
	if _, err := svm.Score([]float64{1, 1}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("Score after a diverged fit: err = %v, want ErrNotFitted", err)
	}
	// Tame data at the default step fits.
	d, _ = NewDataset([][]float64{{1, -1}, {-1, 1}}, []float64{1, -1})
	if err := NewSVM().Fit(d); err != nil {
		t.Fatalf("sane fit: %v", err)
	}
}
