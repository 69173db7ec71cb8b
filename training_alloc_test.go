//go:build !race

package dcta_test

import (
	"runtime"
	"testing"

	"repro"
	"repro/internal/core"
)

// TestTrainingHeapBudget bounds what one warm-started training may
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
		donor := tc.w.train(t, 0, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tc.w.train(t, 1, donor)
		runtime.ReadMemStats(&after)
		grown := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s world: one warm-started training allocated %d bytes", tc.name, grown)
		if grown > tc.budget {
			t.Errorf("%s world: one warm-started training allocated %d bytes, budget %d", tc.name, grown, tc.budget)
		}
	}
}

// liveHeap returns the bytes reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestResidentPolicyHeapBudget bounds what is held, not what was allocated on
// the way: a paper-world policy trained by training_test.go's recipe and kept
// resident — both networks, no replay ring, no mini-batch or gradient scratch
// — stays within 2 MB of live heap (1.2 MB measured over one scratch and three
// warm-started trainings; 5.9 MB while a finished training kept its ring), and
// a built scenario within 8 MB (5.8 MB measured on a 2-CPU amd64 host; 6.6 MB
// while the build also trained the offline CRL, 35 MB when that CRL kept its
// ring).
func TestResidentPolicyHeapBudget(t *testing.T) {
	w := newTrainWorld(t, benchScenario(t))
	const policies = 4
	resident := make([]*core.CRL, 0, policies)
	before := liveHeap()
	var donor *core.CRL
	for c := 0; c < policies; c++ {
		donor = w.train(t, c, donor)
		resident = append(resident, donor)
	}
	per := float64(liveHeap()-before) / policies
	runtime.KeepAlive(resident)
	t.Logf("paper world: %.2f MB of live heap per resident policy", per/1e6)
	if per > 2e6 {
		t.Errorf("a resident paper-world policy holds %.2f MB of live heap, budget 2 MB", per/1e6)
	}

	before = liveHeap()
	scn, err := dcta.NewScenario(dcta.DefaultScenarioConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	held := float64(liveHeap() - before)
	runtime.KeepAlive(scn)
	t.Logf("paper world: a built scenario holds %.2f MB of live heap", held/1e6)
	if held > 8e6 {
		t.Errorf("a built paper-world scenario holds %.2f MB of live heap, budget 8 MB", held/1e6)
	}
}

// TestScenarioBuildBudget bounds what building a world allocates, everything
// included: 60 MB for the paper world and 25 MB for the benchmark's small
// world (about 40 and 18 MB measured; 155 and 37 MB while the importance
// oracle asked the engine once per staging, chiller and leave-one-out pass
// and the build trained an offline CRL nothing served reads).
func TestScenarioBuildBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    dcta.ScenarioConfig
		budget float64
	}{
		{"paper", dcta.DefaultScenarioConfig(1), 60e6},
		{"small", smallConfig(), 25e6},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		scn, err := dcta.NewScenario(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(scn)
		grown := float64(after.TotalAlloc - before.TotalAlloc)
		t.Logf("%s world: NewScenario allocated %.1f MB", tc.name, grown/1e6)
		if grown > tc.budget {
			t.Errorf("%s world: NewScenario allocated %.1f MB, budget %.0f MB", tc.name, grown/1e6, tc.budget/1e6)
		}
	}
}
