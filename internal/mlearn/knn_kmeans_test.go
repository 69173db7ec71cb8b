package mlearn

import (
	"errors"
	"testing"

	"repro/internal/mathx"
)

func TestKNNNeighborsOrdering(t *testing.T) {
	d, _ := NewDataset([][]float64{{0}, {1}, {2}, {10}}, []float64{0, 1, 2, 10})
	knn := NewKNN(3)
	if err := knn.Fit(d); err != nil {
		t.Fatal(err)
	}
	nb, err := knn.Neighbors([]float64{1.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(nb) != 3 || nb[0].Index != 1 || nb[1].Index != 2 || nb[2].Index != 0 {
		t.Fatalf("neighbor order = %+v", nb)
	}
	for i := 1; i < len(nb); i++ {
		if nb[i].Distance < nb[i-1].Distance {
			t.Fatal("neighbors not sorted by distance")
		}
	}
}

func TestKNNPredictAndClassify(t *testing.T) {
	d, _ := NewDataset([][]float64{{0}, {0.1}, {5}, {5.1}}, []float64{-1, -1, 1, 1})
	knn := NewKNN(2)
	if err := knn.Fit(d); err != nil {
		t.Fatal(err)
	}
	if c, _ := knn.Classify([]float64{0.05}); c != -1 {
		t.Fatalf("Classify near cluster A = %v", c)
	}
	if c, _ := knn.Classify([]float64{5.05}); c != 1 {
		t.Fatalf("Classify near cluster B = %v", c)
	}
	if p, _ := knn.Predict([]float64{0.05}); p != -1 {
		t.Fatalf("Predict = %v, want -1", p)
	}
}

func TestKNNKLargerThanData(t *testing.T) {
	d, _ := NewDataset([][]float64{{0}, {1}}, []float64{2, 4})
	knn := NewKNN(10)
	if err := knn.Fit(d); err != nil {
		t.Fatal(err)
	}
	p, err := knn.Predict([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if p != 3 {
		t.Fatalf("K>n predict = %v, want mean 3", p)
	}
}

func TestKNNErrors(t *testing.T) {
	knn := NewKNN(1)
	if err := knn.Fit(&Dataset{}); !errors.Is(err, ErrEmptyDataset) {
		t.Fatalf("empty fit err = %v", err)
	}
	if _, err := knn.Neighbors([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("unfitted err = %v", err)
	}
	d, _ := NewDataset([][]float64{{1, 2}}, []float64{1})
	if err := knn.Fit(d); err != nil {
		t.Fatal(err)
	}
	if _, err := knn.Neighbors([]float64{1}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("dim mismatch err = %v", err)
	}
}

func TestKMeansSeparatesClusters(t *testing.T) {
	rng := mathx.NewRand(1)
	var x [][]float64
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	for _, c := range centers {
		for i := 0; i < 50; i++ {
			x = append(x, []float64{
				c[0] + rng.NormFloat64()*0.5,
				c[1] + rng.NormFloat64()*0.5,
			})
		}
	}
	km := NewKMeans(3)
	if err := km.Fit(x); err != nil {
		t.Fatal(err)
	}
	// Every true center should have a fitted centroid within distance 1.
	for _, c := range centers {
		found := false
		for _, fc := range km.Centroids() {
			if mathx.EuclideanDistance(c, fc) < 1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("no centroid near %v: %v", c, km.Centroids())
		}
	}
	// Points near a center share a cluster.
	a, _ := km.Assign([]float64{0.1, -0.1})
	b, _ := km.Assign([]float64{-0.2, 0.3})
	if a != b {
		t.Fatal("nearby points assigned to different clusters")
	}
}

func TestKMeansKClampedToN(t *testing.T) {
	km := NewKMeans(10)
	if err := km.Fit([][]float64{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if len(km.Centroids()) != 2 {
		t.Fatalf("centroids = %d, want clamped 2", len(km.Centroids()))
	}
}

func TestKMeansDeterminism(t *testing.T) {
	rng := mathx.NewRand(2)
	x := make([][]float64, 60)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	a, b := NewKMeans(4), NewKMeans(4)
	if err := a.Fit(x); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(x); err != nil {
		t.Fatal(err)
	}
	ca, cb := a.Centroids(), b.Centroids()
	for i := range ca {
		if mathx.EuclideanDistance(ca[i], cb[i]) > 1e-12 {
			t.Fatal("same seed must give same centroids")
		}
	}
}

func TestKMeansErrors(t *testing.T) {
	km := NewKMeans(2)
	if err := km.Fit(nil); !errors.Is(err, ErrEmptyDataset) {
		t.Fatalf("empty fit err = %v", err)
	}
	if _, err := km.Assign([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("unfitted assign err = %v", err)
	}
	if err := km.Fit([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("ragged fit err = %v", err)
	}
	if err := km.Fit([][]float64{{1, 2}, {3, 4}, {5, 6}}); err != nil {
		t.Fatal(err)
	}
	if _, err := km.Assign([]float64{1}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("dim mismatch err = %v", err)
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	// All points identical: k-means++ must not loop forever or divide by zero.
	x := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	km := NewKMeans(2)
	if err := km.Fit(x); err != nil {
		t.Fatal(err)
	}
	c, err := km.Assign([]float64{1, 1})
	if err != nil || c < 0 {
		t.Fatalf("assign on degenerate data: %v %v", c, err)
	}
	if d := mathx.SquaredDistance(x[0], km.Centroids()[c]); d > 1e-12 {
		t.Fatalf("degenerate centroid %v, want the common point", km.Centroids()[c])
	}
}
