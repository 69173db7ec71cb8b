package rl

import (
	"bytes"
	"testing"
)

// TestCloneIsAnInferenceReplica pins what a clone carries — the online
// network only, no target network and no allocated replay ring — that it
// answers exactly like its source, and that a clone trained anyway still
// learns (its target network appears, in sync, with the first learning step).
func TestCloneIsAnInferenceReplica(t *testing.T) {
	env := newChainEnv(5)
	cfg := DQNConfig{Hidden: []int{16}, WarmupSteps: 16, BatchSize: 8, Seed: 7}
	src, err := NewDQN(env.StateSize(), env.ActionSize(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if src.target != nil || src.replay.buf != nil {
		t.Fatal("a fresh agent already holds a target network or a replay ring")
	}
	if _, err := src.Train(env, 30, 40); err != nil {
		t.Fatal(err)
	}
	if src.target == nil || src.replay.buf == nil {
		t.Fatal("training left the target network or replay ring unallocated")
	}
	clone, err := src.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if clone.target != nil || clone.replay.buf != nil || clone.batchTr != nil {
		t.Fatal("clone carries training state")
	}
	if clone.Online() == src.Online() {
		t.Fatal("clone shares the source's network")
	}
	state := env.Reset()
	want, err := src.QValues(state)
	if err != nil {
		t.Fatal(err)
	}
	got, err := clone.QValues(state)
	if err != nil {
		t.Fatal(err)
	}
	for a := range want {
		if got[a] != want[a] {
			t.Fatalf("action %d: clone Q %v, source Q %v", a, got[a], want[a])
		}
	}
	if _, err := clone.Train(env, 5, 40); err != nil {
		t.Fatalf("training a clone: %v", err)
	}
	if clone.target == nil {
		t.Fatal("a trained clone has no target network")
	}
}

// TestLazyTargetKeepsTrainingBitwise: materializing the target network at the
// first learning step instead of at construction must not move a seeded run.
// The eager agent forces its target into existence up front.
func TestLazyTargetKeepsTrainingBitwise(t *testing.T) {
	env := newChainEnv(5)
	cfg := DQNConfig{Hidden: []int{16}, WarmupSteps: 16, BatchSize: 8, TargetSyncEvery: 20, Seed: 9}
	policies := make([][]byte, 2)
	for i := range policies {
		agent, err := NewDQN(env.StateSize(), env.ActionSize(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if err := agent.ensureTarget(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := agent.Train(env, 30, 40); err != nil {
			t.Fatal(err)
		}
		if policies[i], err = agent.MarshalJSON(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(policies[0], policies[1]) {
		t.Fatal("lazy and eager target networks trained different policies")
	}
}

// TestReplayRingAllocatedOnFirstAdd: capacity is remembered, nothing is
// allocated until a transition arrives, and then the ring starts small.
func TestReplayRingAllocatedOnFirstAdd(t *testing.T) {
	r := NewReplayBuffer(10000)
	if r.buf != nil {
		t.Fatal("ring allocated before any Add")
	}
	r.Add(Transition{Action: 1})
	if len(r.buf) != replayInitSlots || r.Len() != 1 {
		t.Fatalf("ring %d slots, len %d after one Add", len(r.buf), r.Len())
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
