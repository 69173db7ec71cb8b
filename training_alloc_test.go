//go:build !race

package dcta_test

import (
	"runtime"
	"testing"
)

// TestTrainingHeapBudget bounds what one served warm-started training may
// allocate, everything included — the model, its target network and gradient
// buffers, the replay ring, the episode loop: 1.0 MB on the small world
// (24×5; was 2.3 MB) and 8 MB on the paper world (50×9; was 12.5 MB). Before
// the ring grew with its contents and kept one copy of each visited state, a
// training paid 1 MB for 10 000 empty ring slots and two clones of the state
// per step. (Excluded from -race builds: the race detector instruments
// allocations.)
func TestTrainingHeapBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		w      *trainWorld
		budget uint64
	}{
		{"small", newTrainWorld(t, smallScenario(t)), 1.0e6},
		{"paper", newTrainWorld(t, benchScenario(t)), 8e6},
	} {
		donor := tc.w.train(t, 0, nil, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tc.w.train(t, 1, donor, nil)
		runtime.ReadMemStats(&after)
		grown := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s world: one warm-started training allocated %d bytes", tc.name, grown)
		if grown > tc.budget {
			t.Errorf("%s world: one warm-started training allocated %d bytes, budget %d", tc.name, grown, tc.budget)
		}
	}
}
