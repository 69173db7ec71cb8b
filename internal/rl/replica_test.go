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

// TestReplayRingAllocatedOnFirstAdd covers both sampling modes: capacity is
// remembered, nothing is allocated until a transition arrives, and then the
// ring starts small.
func TestReplayRingAllocatedOnFirstAdd(t *testing.T) {
	for name, r := range map[string]*ReplayBuffer{
		"uniform":     NewReplayBuffer(10000),
		"prioritized": NewPrioritizedReplayBuffer(10000, 0.6),
	} {
		if r.buf != nil || r.tree != nil {
			t.Fatalf("%s: ring allocated before any Add", name)
		}
		if got := r.Prioritized(); got != (name == "prioritized") {
			t.Fatalf("%s: Prioritized() = %v before any Add", name, got)
		}
		r.UpdatePriority(3, 2) // no entries yet: must be a no-op, not a panic
		r.Add(Transition{Action: 1})
		if len(r.buf) != replayInitSlots || r.Len() != 1 {
			t.Fatalf("%s: ring %d slots, len %d after one Add", name, len(r.buf), r.Len())
		}
	}
}
