//go:build !race

package core

import (
	"runtime"
	"testing"

	"repro/internal/mathx"
	"repro/internal/rl"
)

// TestRolloutZeroAllocs pins the warm rollout's allocation contract at the
// serving shape: once a replica's scratch has grown, PredictBatchInto
// allocates nothing, alone or as a coalesced batch of four. (Excluded from
// -race builds: the race detector instruments allocations.)
func TestRolloutZeroAllocs(t *testing.T) {
	crl := paperShapeReplica(t)
	rng := mathx.NewRand(5)
	for _, b := range []int{1, 4} {
		envs := make([]*Environment, b)
		for i := range envs {
			envs[i] = randomEnvironment(t, crl, rng)
		}
		out := make([]Allocation, b)
		run := func() {
			if err := crl.PredictBatchInto(envs, out); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Fatalf("batch of %d: %v allocations per warm rollout, want 0", b, allocs)
		}
	}
}

// TestCloneHeapBudget bounds what one inference replica costs the serving
// layer's pools: Clone plus the replica's first rollout (which grows its
// scratch) may allocate at most 1.2 MB at 50×9 / [64,64], where the weights
// the rollout reads are 0.5 MB. A clone that also carried a target network,
// momentum and gradient buffers and a replay ring took ~3.3 MB.
func TestCloneHeapBudget(t *testing.T) {
	crl := paperShapeReplica(t)
	env := randomEnvironment(t, crl, mathx.NewRand(6))
	out := make([]Allocation, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	replica, err := crl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.PredictBatchInto([]*Environment{env}, out); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const budget = 1.2e6
	grown := after.TotalAlloc - before.TotalAlloc
	t.Logf("Clone + first rollout allocated %d bytes", grown)
	if float64(grown) > budget {
		t.Fatalf("Clone + first rollout allocated %d bytes, budget %d", grown, int(budget))
	}
}

// TestTrainEpisodeZeroAllocs pins the training loop's allocation contract at
// the serving shape with serve's agent (batch 32): once the replay ring has
// wrapped, a whole ε-greedy training episode — every step's action choice,
// environment step, replay insert and learning step — allocates nothing.
func TestTrainEpisodeZeroAllocs(t *testing.T) {
	crl, err := newPaperShape(92, 1, true, rl.DQNConfig{ReplayCapacity: 128, Seed: 93})
	if err != nil {
		t.Fatal(err)
	}
	env := crl.store.All()[0]
	prob, err := crl.problemFor(env)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := NewAllocEnv(prob, env.Signature)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	run := func() {
		n, _, err := crl.agent.TrainEpisode(alloc, alloc.N()+alloc.M()+1)
		if err != nil {
			t.Fatal(err)
		}
		steps += n
	}
	for steps < 3*128 {
		run()
	}
	// Counted exactly: AllocsPerRun rounds an allocation on every other
	// episode down to none.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("%d allocations in 20 training episodes, want 0", n)
	}
}
