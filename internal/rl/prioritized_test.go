package rl

import (
	"math"
	"math/rand"
	"testing"
)

// TestPrioritizedAlphaZeroBitwiseUniform pins the A/B-equivalence knob: a DQN
// with PrioritizedReplay on but PriorityAlpha = 0 must consume the RNG exactly
// like the uniform sampler and apply unit importance weights, so a seeded
// training run is bitwise-identical to the plain configuration.
func TestPrioritizedAlphaZeroBitwiseUniform(t *testing.T) {
	train := func(prioritized bool) *DQN {
		env := newChainEnv(5)
		cfg := DQNConfig{
			Hidden:            []int{16},
			Epsilon:           EpsilonSchedule{Start: 1, End: 0.05, DecaySteps: 400},
			WarmupSteps:       16,
			BatchSize:         8,
			Seed:              21,
			PrioritizedReplay: prioritized,
			PriorityAlpha:     0,
		}
		agent, err := NewDQN(env.StateSize(), env.ActionSize(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := agent.Train(env, 60, 40); err != nil {
			t.Fatal(err)
		}
		return agent
	}
	uniform, prio := train(false), train(true)
	state := make([]float64, 5)
	for s := 0; s < 5; s++ {
		for i := range state {
			state[i] = 0
		}
		state[s] = 1
		qu, err := uniform.QValues(state)
		if err != nil {
			t.Fatal(err)
		}
		qp, err := prio.QValues(state)
		if err != nil {
			t.Fatal(err)
		}
		for a := range qu {
			if qu[a] != qp[a] {
				t.Fatalf("state %d action %d: uniform Q %v != alpha-0 prioritized Q %v",
					s, a, qu[a], qp[a])
			}
		}
	}
}

// TestPrioritizedSamplingBias drives the sum tree directly: after one slot's
// priority dwarfs the rest, nearly every draw must come from it, and its
// max-normalized importance weight must be the batch's smallest.
func TestPrioritizedSamplingBias(t *testing.T) {
	const cap = 8
	r := NewPrioritizedReplayBuffer(cap, 1)
	if !r.Prioritized() {
		t.Fatal("alpha=1 buffer should be prioritized")
	}
	for i := 0; i < cap; i++ {
		r.Add(Transition{Action: i})
	}
	for i := 0; i < cap; i++ {
		r.UpdatePriority(i, 0.001)
	}
	r.UpdatePriority(3, 10)

	rng := rand.New(rand.NewSource(5))
	dst := make([]Transition, 64)
	slots := make([]int, 64)
	weights := make([]float64, 64)
	hot, total := 0, 0
	minHotW, maxRareW := math.Inf(1), 0.0
	for round := 0; round < 32; round++ {
		n := r.SampleInto(rng, dst, slots, weights, 0.4)
		if n != len(dst) {
			t.Fatalf("filled %d of %d", n, len(dst))
		}
		for i := 0; i < n; i++ {
			if slots[i] < 0 || slots[i] >= cap || dst[i].Action != slots[i] {
				t.Fatalf("sample %d: slot %d holds action %d", i, slots[i], dst[i].Action)
			}
			if weights[i] <= 0 || weights[i] > 1 {
				t.Fatalf("weight %v outside (0,1]", weights[i])
			}
			total++
			if slots[i] == 3 {
				hot++
				minHotW = math.Min(minHotW, weights[i])
			} else {
				maxRareW = math.Max(maxRareW, weights[i])
			}
		}
	}
	if frac := float64(hot) / float64(total); frac < 0.9 {
		t.Fatalf("hot slot drew %.1f%% of samples, want ≥90%%", frac*100)
	}
	if total == hot {
		t.Skip("no rare slot drawn; cannot compare weights")
	}
	// Oversampled transitions are down-weighted relative to rare ones.
	if minHotW >= maxRareW {
		t.Fatalf("hot-slot weight %v should be below rare-slot weight %v", minHotW, maxRareW)
	}
}

// TestPrioritizedUniformFallback: alpha ≤ 0 must reproduce the uniform
// sampler's RNG stream exactly, with every weight exactly 1.
func TestPrioritizedUniformFallback(t *testing.T) {
	fill := func(r *ReplayBuffer) *ReplayBuffer {
		for i := 0; i < 10; i++ {
			r.Add(Transition{Action: i})
		}
		return r
	}
	a, b := fill(NewReplayBuffer(16)), fill(NewPrioritizedReplayBuffer(16, 0))
	if b.Prioritized() {
		t.Fatal("alpha=0 buffer must not be prioritized")
	}
	dstA := make([]Transition, 32)
	dstB := make([]Transition, 32)
	slots := make([]int, 32)
	weights := make([]float64, 32)
	a.SampleInto(rand.New(rand.NewSource(9)), dstA, make([]int, 32), make([]float64, 32), 0)
	b.SampleInto(rand.New(rand.NewSource(9)), dstB, slots, weights, 0.4)
	for i := range dstA {
		if dstA[i].Action != dstB[i].Action || slots[i] != dstB[i].Action {
			t.Fatalf("draw %d: uniform %d, fallback %d (slot %d)",
				i, dstA[i].Action, dstB[i].Action, slots[i])
		}
		if weights[i] != 1 {
			t.Fatalf("draw %d: weight %v, want exactly 1", i, weights[i])
		}
	}
}

// TestPrioritizedDQNLearnsChain: the real transfer setting (alpha 0.6) must
// still solve the chain — prioritization reorders learning, not correctness.
func TestPrioritizedDQNLearnsChain(t *testing.T) {
	env := newChainEnv(5)
	agent, err := NewDQN(env.StateSize(), env.ActionSize(), DQNConfig{
		Hidden:            []int{24},
		Epsilon:           EpsilonSchedule{Start: 1, End: 0.02, DecaySteps: 800},
		TargetSyncEvery:   50,
		WarmupSteps:       32,
		Seed:              3,
		PrioritizedReplay: true,
		PriorityAlpha:     0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Train(env, 250, 60); err != nil {
		t.Fatal(err)
	}
	_, total, err := agent.RunGreedy(env, 60)
	if err != nil {
		t.Fatal(err)
	}
	if total != 1 {
		t.Fatalf("greedy return = %v, want 1", total)
	}
}

// TestCloneFromWarmStart pins the transfer semantics: the clone starts with
// the donor's exact policy and step counter, and its learning warmup drops to
// one mini-batch so a short fine-tuning budget takes gradient steps
// immediately instead of idling through a fresh exploration warmup.
func TestCloneFromWarmStart(t *testing.T) {
	env := newChainEnv(5)
	cfg := DQNConfig{
		Hidden:      []int{16},
		WarmupSteps: 32,
		BatchSize:   8,
		Seed:        13,
	}
	src, err := NewDQN(env.StateSize(), env.ActionSize(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Train(env, 40, 40); err != nil {
		t.Fatal(err)
	}

	dst, err := NewDQN(env.StateSize(), env.ActionSize(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.CloneFrom(nil); err == nil {
		t.Fatal("nil source accepted")
	}
	if err := dst.CloneFrom(src); err != nil {
		t.Fatal(err)
	}
	if dst.Steps() != src.Steps() {
		t.Fatalf("steps = %d, want donor's %d", dst.Steps(), src.Steps())
	}
	if dst.warmup != cfg.BatchSize {
		t.Fatalf("warmup = %d, want one mini-batch (%d)", dst.warmup, cfg.BatchSize)
	}

	state := env.Reset()
	before, err := dst.QValues(state)
	if err != nil {
		t.Fatal(err)
	}
	srcQ, err := src.QValues(state)
	if err != nil {
		t.Fatal(err)
	}
	for a := range before {
		if before[a] != srcQ[a] {
			t.Fatalf("action %d: clone Q %v != donor Q %v", a, before[a], srcQ[a])
		}
	}
	before = append([]float64(nil), before...)

	// One mini-batch of fresh experience is enough to learn: the clone's
	// replay is empty, so well under WarmupSteps observations must already
	// move the weights.
	next := append([]float64(nil), state...)
	next[0], next[1] = 0, 1
	for i := 0; i < cfg.BatchSize; i++ {
		err := dst.Observe(Transition{
			State: state, Action: 1, Reward: 0.5, NextState: next, NextValid: []int{0, 1},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	after, err := dst.QValues(state)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for a := range after {
		if after[a] != before[a] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("clone took no gradient step within one mini-batch of experience")
	}
}
