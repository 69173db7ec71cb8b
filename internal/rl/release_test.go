package rl

import (
	"bytes"
	"testing"
)

// TestReleaseTraining pins what ReleaseTraining drops and what it must not
// move. Two agents are trained identically and one is released: it holds no
// replay ring and no mini-batch scratch, answers and serializes exactly like
// the other, seeds a warm start that trains to the same policy bit for bit
// (CloneFrom reads the networks and the step counter, never the ring), and
// trains again from an empty ring.
func TestReleaseTraining(t *testing.T) {
	for name, cfg := range map[string]DQNConfig{
		"uniform": {Hidden: []int{16}, WarmupSteps: 16, BatchSize: 8, TargetSyncEvery: 20, Seed: 7},
		"double":  {Hidden: []int{16}, WarmupSteps: 16, BatchSize: 8, TargetSyncEvery: 20, Seed: 7, DoubleDQN: true},
	} {
		train := func(seedFrom *DQN, episodes int) *DQN {
			env := newChainEnv(5)
			agent, err := NewDQN(env.StateSize(), env.ActionSize(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if seedFrom != nil {
				if err := agent.CloneFrom(seedFrom); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := agent.Train(env, episodes, 40); err != nil {
				t.Fatal(err)
			}
			return agent
		}
		policy := func(d *DQN) []byte {
			blob, err := d.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			return blob
		}
		kept, released := train(nil, 30), train(nil, 30)
		if kept.ReplayLen() == 0 || kept.batchTr == nil || kept.target == nil {
			t.Fatalf("%s: training left no learning state to release", name)
		}
		released.ReleaseTraining()
		if released.ReplayLen() != 0 || released.replay.buf != nil || released.replay.memo != nil {
			t.Fatalf("%s: released agent still holds %d replayed transitions", name, released.ReplayLen())
		}
		if released.batchTr != nil || released.states != nil || released.nexts != nil {
			t.Fatalf("%s: released agent still holds its mini-batch scratch", name)
		}
		if released.target == nil || released.Steps() != kept.Steps() || released.targetVer != kept.targetVer {
			t.Fatalf("%s: release dropped the target network or moved a counter", name)
		}
		if !bytes.Equal(policy(released), policy(kept)) {
			t.Fatalf("%s: release moved the policy", name)
		}
		state := newChainEnv(5).Reset()
		want, err := kept.QValues(state)
		if err != nil {
			t.Fatal(err)
		}
		got, err := released.QValues(state)
		if err != nil {
			t.Fatal(err)
		}
		for a := range want {
			if got[a] != want[a] {
				t.Fatalf("%s: action %d: released Q %v, kept Q %v", name, a, got[a], want[a])
			}
		}
		if !bytes.Equal(policy(train(released, 10)), policy(train(kept, 10))) {
			t.Fatalf("%s: a warm start from the released donor trained a different policy", name)
		}
		// Learning state comes back on demand.
		if _, err := released.Train(newChainEnv(5), 10, 40); err != nil {
			t.Fatalf("%s: training a released agent: %v", name, err)
		}
		if released.ReplayLen() == 0 || released.batchTr == nil {
			t.Fatalf("%s: a released agent trained again holds no learning state", name)
		}
		if bytes.Equal(policy(released), policy(kept)) {
			t.Fatalf("%s: a released agent trained again did not learn", name)
		}
	}
}
