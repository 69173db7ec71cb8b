package core

import (
	"errors"
	"math"
	"testing"
)

func TestNewOfflineStoreValidation(t *testing.T) {
	if _, err := NewOfflineStore(nil, 3, 1); !errors.Is(err, ErrEmptyStore) {
		t.Fatalf("nil store err = %v", err)
	}
	if _, err := NewOfflineStore(NewEnvironmentStore(), 3, 1); !errors.Is(err, ErrEmptyStore) {
		t.Fatalf("empty store err = %v", err)
	}
}

func TestOfflineStoreClustersAndDefines(t *testing.T) {
	_, store := storeFixture(t, 6, 2, 40)
	off, err := NewOfflineStore(store, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(off.centroids) < 1 || len(off.centroids) > 4 {
		t.Fatalf("clusters = %d", len(off.centroids))
	}
	env, err := off.Define([]float64{0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Importance) != 6 {
		t.Fatalf("importance length = %d", len(env.Importance))
	}
	for _, v := range env.Importance {
		if v < 0 || v > 1 {
			t.Fatalf("averaged importance %v out of range", v)
		}
	}
	// k clamps to store size.
	small, err := NewOfflineStore(store, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(small.centroids) > store.Len() {
		t.Fatalf("clusters %d exceed store size %d", len(small.centroids), store.Len())
	}
	if _, err := off.Define([]float64{1, 2, 3}); err == nil {
		t.Fatal("bad signature length should error")
	}
}

// Online kNN should track a query's environment at least as closely as the
// offline cluster average, on average.
func TestOnlineBeatsOfflineOnAccuracy(t *testing.T) {
	_, store := storeFixture(t, 8, 2, 60)
	off, err := NewOfflineStore(store, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var onlineErr, offlineErr float64
	n := 0
	for _, z := range []float64{0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95} {
		query := []float64{z}
		online, err := store.DefineBlended(query, 3)
		if err != nil {
			t.Fatal(err)
		}
		offline, err := off.Define(query)
		if err != nil {
			t.Fatal(err)
		}
		// Ground truth: the importance profile the fixture generates for z.
		truth := fixtureImportance(8, z)
		onlineErr += rmse(online.Importance, truth)
		offlineErr += rmse(offline.Importance, truth)
		n++
	}
	if !(onlineErr/float64(n) <= offlineErr/float64(n)+0.02) {
		t.Fatalf("online RMSE %v should not trail offline %v by much",
			onlineErr/float64(n), offlineErr/float64(n))
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
