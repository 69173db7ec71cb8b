//go:build !race

package rl

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestObserveZeroAllocs pins the learning step's allocation contract at the
// serving shape (50×9 MDP: 900 inputs, [64,64], 51 actions, batch 32): once
// the replay ring has wrapped — every slot's state vectors, valid-action
// list and memo row exist — Observe allocates nothing, whether or not the
// bootstrap is Double DQN's.
// (Excluded from -race builds: the race detector instruments allocations.)
func TestObserveZeroAllocs(t *testing.T) {
	// Counted on one P, as AllocsPerRun does: the count is process-wide, and
	// with an idle second P a preemption can make the scheduler start an OS
	// thread inside a window (five runtime mallocs, none of them Observe's).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const in, actions = 900, 51
	for name, cfg := range map[string]DQNConfig{
		"uniform": {},
		"double":  {DoubleDQN: true},
	} {
		cfg.ReplayCapacity, cfg.WarmupSteps, cfg.TargetSyncEvery, cfg.Seed = 96, 32, 40, 3
		d, err := NewDQN(in, actions, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(8))
		stream := make([]Transition, 64)
		for i := range stream {
			stream[i] = randomTransition(rng, in, actions)
		}
		next := 0
		run := func() {
			if err := d.Observe(stream[next%len(stream)]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for i := 0; i < 2*cfg.ReplayCapacity; i++ {
			run()
		}
		// Counted exactly: AllocsPerRun rounds an allocation on every other
		// call down to none.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 200; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Fatalf("%s: %d allocations in 200 steady-state Observe calls, want 0", name, n)
		}
	}
}
