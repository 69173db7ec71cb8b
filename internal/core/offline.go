package core

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/mlearn"
)

// OfflineStore is the paper's §VII offline mode: historical environments are
// clustered in advance with k-means, and a query is answered with its
// cluster's averaged environment. It trades the online kNN mode's accuracy
// for a constant-time lookup — "its drawback lies in the possibly low
// prediction accuracy due to the offline clustering".
type OfflineStore struct {
	km        *mlearn.KMeans
	centroids []*Environment
}

// NewOfflineStore pre-clusters a historical store into k clusters.
func NewOfflineStore(store *EnvironmentStore, k int, seed int64) (*OfflineStore, error) {
	if store == nil || store.Len() == 0 {
		return nil, ErrEmptyStore
	}
	if k < 1 {
		k = 1
	}
	entries := store.All()
	sigs := make([][]float64, len(entries))
	for i, e := range entries {
		sigs[i] = e.Signature
	}
	km := mlearn.NewKMeans(k)
	km.Seed = seed
	if err := km.Fit(sigs); err != nil {
		return nil, fmt.Errorf("offline store clustering: %w", err)
	}
	// Average the environments per cluster.
	kk := len(km.Centroids())
	n := len(entries[0].Importance)
	sums := make([][]float64, kk)
	counts := make([]int, kk)
	for i := range sums {
		sums[i] = make([]float64, n)
	}
	for i, e := range entries {
		c, err := km.Assign(sigs[i])
		if err != nil {
			return nil, fmt.Errorf("offline store assign: %w", err)
		}
		counts[c]++
		mathx.AXPY(1, e.Importance, sums[c])
	}
	o := &OfflineStore{km: km, centroids: make([]*Environment, kk)}
	cents := km.Centroids()
	for c := 0; c < kk; c++ {
		imp := sums[c]
		if counts[c] > 0 {
			mathx.Scale(1/float64(counts[c]), imp)
		}
		o.centroids[c] = &Environment{
			Importance: imp,
			Capacity:   mathx.Clone(entries[0].Capacity),
			Signature:  cents[c],
		}
	}
	return o, nil
}

// Define answers an environment-definition query with the averaged
// environment of the query's cluster.
func (o *OfflineStore) Define(z []float64) (*Environment, error) {
	c, err := o.km.Assign(z)
	if err != nil {
		return nil, fmt.Errorf("offline define: %w", err)
	}
	return o.centroids[c], nil
}
