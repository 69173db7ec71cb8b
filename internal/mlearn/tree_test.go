package mlearn

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mathx"
)

func TestTreeFitsStepFunction(t *testing.T) {
	// y = 1 if x > 0.5 else -1: a single split suffices.
	x := [][]float64{{0.1}, {0.2}, {0.3}, {0.7}, {0.8}, {0.9}}
	y := []float64{-1, -1, -1, 1, 1, 1}
	d, _ := NewDataset(x, y)
	tree := &Tree{MaxDepth: 1, MinLeaf: 1, FeatureFrac: 1}
	if err := tree.Fit(d); err != nil {
		t.Fatal(err)
	}
	if r := tree.root; r.leaf || !r.left.leaf || !r.right.leaf {
		t.Fatal("want a single split")
	}
	acc, err := Accuracy(tree, d)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Fatalf("step accuracy = %v, want 1", acc)
	}
}

func TestTreeRegression(t *testing.T) {
	rng := mathx.NewRand(1)
	n := 400
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = []float64{rng.Float64()}
		y[i] = math.Sin(4 * x[i][0]) // smooth target
	}
	d, _ := NewDataset(x, y)
	tree := &Tree{MaxDepth: 6, MinLeaf: 1, FeatureFrac: 1}
	if err := tree.Fit(d); err != nil {
		t.Fatal(err)
	}
	preds := make([]float64, n)
	for i := range x {
		p, err := tree.Predict(x[i])
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = p
	}
	if e := rmse(preds, y); e > 0.15 {
		t.Fatalf("depth-6 tree RMSE = %v, want < 0.15", e)
	}
}

func TestTreePureLeafShortCircuit(t *testing.T) {
	d, _ := NewDataset([][]float64{{1}, {2}, {3}}, []float64{5, 5, 5})
	tree := &Tree{MaxDepth: 10, MinLeaf: 1, FeatureFrac: 1}
	if err := tree.Fit(d); err != nil {
		t.Fatal(err)
	}
	if !tree.root.leaf {
		t.Fatal("pure targets should make a single leaf")
	}
	if p, _ := tree.Predict([]float64{99}); p != 5 {
		t.Fatalf("pure leaf value = %v, want 5", p)
	}
}

func TestTreeWeightedFitRespectsWeights(t *testing.T) {
	// Two conflicting groups; weights decide which one the stump obeys.
	x := [][]float64{{0}, {0}, {1}, {1}}
	y := []float64{-1, 1, -1, 1}
	d, _ := NewDataset(x, y)
	tree := &Tree{MaxDepth: 1, MinLeaf: 1, FeatureFrac: 1}
	// Crushing weight on rows 1 and 2 (y=+1 at x=0, y=-1 at x=1).
	if err := tree.FitWeighted(d, []float64{0.01, 10, 10, 0.01}); err != nil {
		t.Fatal(err)
	}
	p0, _ := tree.Predict([]float64{0})
	p1, _ := tree.Predict([]float64{1})
	if !(p0 > p1) {
		t.Fatalf("weighted fit ignored weights: f(0)=%v f(1)=%v", p0, p1)
	}
}

func TestTreeMinLeafConstraint(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{1, 2, 3, 4}
	d, _ := NewDataset(x, y)
	tree := &Tree{MaxDepth: 10, MinLeaf: 2, FeatureFrac: 1}
	if err := tree.Fit(d); err != nil {
		t.Fatal(err)
	}
	// With MinLeaf=2 and 4 samples the tree can split at most once.
	if r := tree.root; !r.leaf && !(r.left.leaf && r.right.leaf) {
		t.Fatal("MinLeaf violated: depth > 1")
	}
}

func TestTreeErrors(t *testing.T) {
	tree := &Tree{MaxDepth: 3, MinLeaf: 1, FeatureFrac: 1}
	if err := tree.Fit(&Dataset{}); !errors.Is(err, ErrEmptyDataset) {
		t.Fatalf("empty fit err = %v", err)
	}
	if _, err := tree.Predict([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("unfitted predict err = %v", err)
	}
	d, _ := NewDataset([][]float64{{1, 2}}, []float64{1})
	if err := tree.FitWeighted(d, []float64{1, 2}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("weight mismatch err = %v", err)
	}
	if err := tree.Fit(d); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Predict([]float64{1}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("dim mismatch err = %v", err)
	}
}

func TestTreeClassifyThreshold(t *testing.T) {
	d, _ := NewDataset([][]float64{{0}, {1}}, []float64{-1, 1})
	tree := &Tree{MaxDepth: 1, MinLeaf: 1, FeatureFrac: 1}
	if err := tree.Fit(d); err != nil {
		t.Fatal(err)
	}
	if c, _ := tree.Classify([]float64{0}); c != -1 {
		t.Fatalf("Classify(0) = %v", c)
	}
	if c, _ := tree.Classify([]float64{1}); c != 1 {
		t.Fatalf("Classify(1) = %v", c)
	}
}

// rmse is the root mean squared error between equal-length pred and target.
func rmse(pred, target []float64) float64 {
	var s float64
	for i := range pred {
		d := pred[i] - target[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}
