//go:build !race

package core

import (
	"runtime"
	"testing"

	"repro/internal/mathx"
	"repro/internal/rl"
)

// TestRolloutZeroAllocs pins the warm rollout's allocation contract at the
// serving shape: once a workspace has grown, a rollout allocates nothing —
// one request's RolloutInto on its own Rollout, or PredictBatchInto over four.
// (Excluded from -race builds: the race detector instruments allocations.)
func TestRolloutZeroAllocs(t *testing.T) {
	crl := paperShapePolicy(t)
	rng := mathx.NewRand(5)
	env := randomEnvironment(t, crl, rng)
	var r Rollout
	var alloc Allocation
	solo := func() {
		var err error
		if alloc, err = crl.RolloutInto(&r, env, alloc); err != nil {
			t.Fatal(err)
		}
	}
	envs := make([]*Environment, 4)
	for i := range envs {
		envs[i] = randomEnvironment(t, crl, rng)
	}
	out := make([]Allocation, len(envs))
	batch := func() {
		if err := crl.PredictBatchInto(envs, out); err != nil {
			t.Fatal(err)
		}
	}
	for name, run := range map[string]func(){"RolloutInto": solo, "PredictBatchInto of 4": batch} {
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Fatalf("%s: %v allocations per warm rollout, want 0", name, allocs)
		}
	}
}

// TestRolloutFirstUseHeapBudget bounds what a request-owned workspace costs:
// a fresh Rollout's first rollout at 50×9 / [64,64], which builds its lane and
// sizes its buffers, allocates 31 080 bytes (budget 40 KB) — beside 0.59 MB of
// weights that every workspace reads and none copies.
func TestRolloutFirstUseHeapBudget(t *testing.T) {
	crl := paperShapePolicy(t)
	env := randomEnvironment(t, crl, mathx.NewRand(6))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var r Rollout
	if _, err := crl.RolloutInto(&r, env, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const budget = 40e3
	grown := after.TotalAlloc - before.TotalAlloc
	t.Logf("a fresh Rollout's first rollout allocated %d bytes", grown)
	if float64(grown) > budget {
		t.Fatalf("a fresh Rollout's first rollout allocated %d bytes, budget %d", grown, int(budget))
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
	// episode down to none. Counted on one P, as AllocsPerRun does: the
	// count is process-wide, and with an idle second P a preemption can make
	// the scheduler start an OS thread inside the window (five runtime
	// mallocs, none of them the episode's).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
