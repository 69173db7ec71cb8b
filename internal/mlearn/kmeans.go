package mlearn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mathx"
)

// KMeans is Lloyd's algorithm with k-means++ initialization. The paper's
// discussion section (§VII) describes an offline mode that clusters
// historical samples in advance; this type implements that mode.
type KMeans struct {
	// K is the number of clusters.
	K int
	// MaxIter bounds Lloyd iterations.
	MaxIter int
	// Seed drives the k-means++ initialization.
	Seed int64

	centroids [][]float64
	fitted    bool
}

// NewKMeans returns a k-means model with default iteration budget.
func NewKMeans(k int) *KMeans { return &KMeans{K: k, MaxIter: 100, Seed: 1} }

// Fit clusters the rows of x.
func (m *KMeans) Fit(x [][]float64) error {
	if len(x) == 0 {
		return ErrEmptyDataset
	}
	if m.K < 1 {
		m.K = 1
	}
	if m.K > len(x) {
		m.K = len(x)
	}
	if m.MaxIter < 1 {
		m.MaxIter = 1
	}
	dim := len(x[0])
	for i, row := range x {
		if len(row) != dim {
			return fmt.Errorf("kmeans fit row %d: %w", i, ErrBadShape)
		}
	}
	rng := rand.New(rand.NewSource(m.Seed))
	m.centroids = m.initPlusPlus(rng, x)
	assign := make([]int, len(x))
	for iter := 0; iter < m.MaxIter; iter++ {
		changed := false
		for i, row := range x {
			best := m.nearest(row)
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		counts := make([]int, m.K)
		sums := make([][]float64, m.K)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, row := range x {
			c := assign[i]
			counts[c]++
			mathx.AXPY(1, row, sums[c])
		}
		for c := 0; c < m.K; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				m.centroids[c] = mathx.Clone(x[rng.Intn(len(x))])
				continue
			}
			mathx.Scale(1/float64(counts[c]), sums[c])
			m.centroids[c] = sums[c]
		}
	}
	m.fitted = true
	return nil
}

func (m *KMeans) initPlusPlus(rng *rand.Rand, x [][]float64) [][]float64 {
	centroids := make([][]float64, 0, m.K)
	centroids = append(centroids, mathx.Clone(x[rng.Intn(len(x))]))
	dist := make([]float64, len(x))
	for len(centroids) < m.K {
		var total float64
		for i, row := range x {
			d := math.Inf(1)
			for _, c := range centroids {
				if v := mathx.SquaredDistance(row, c); v < d {
					d = v
				}
			}
			dist[i] = d
			total += d
		}
		if total == 0 {
			// All points coincide with centroids; duplicate one.
			centroids = append(centroids, mathx.Clone(x[rng.Intn(len(x))]))
			continue
		}
		pick := mathx.WeightedChoice(rng, dist)
		centroids = append(centroids, mathx.Clone(x[pick]))
	}
	return centroids
}

func (m *KMeans) nearest(x []float64) int {
	best, bestD := 0, math.Inf(1)
	for c, cent := range m.centroids {
		if d := mathx.SquaredDistance(x, cent); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// Assign returns the cluster index of x.
func (m *KMeans) Assign(x []float64) (int, error) {
	if !m.fitted {
		return 0, ErrNotFitted
	}
	if len(x) != len(m.centroids[0]) {
		return 0, fmt.Errorf("kmeans assign: %d features, want %d: %w",
			len(x), len(m.centroids[0]), ErrBadShape)
	}
	return m.nearest(x), nil
}

// Centroids returns deep copies of the fitted cluster centers.
func (m *KMeans) Centroids() [][]float64 {
	out := make([][]float64, len(m.centroids))
	for i, c := range m.centroids {
		out[i] = mathx.Clone(c)
	}
	return out
}
