package rl

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mathx"
)

// chainEnv is a deterministic chain of n cells. The agent starts at 0,
// actions are 0=left / 1=right, and reaching the right end pays +1 and
// terminates. Stepping left at 0 is invalid. Optimal return is 1.
type chainEnv struct {
	n   int
	pos int
}

func newChainEnv(n int) *chainEnv { return &chainEnv{n: n} }

func (c *chainEnv) Reset() []float64 {
	c.pos = 0
	return c.encode()
}

func (c *chainEnv) encode() []float64 {
	s := make([]float64, c.n)
	s[c.pos] = 1
	return s
}

func (c *chainEnv) StateSize() int  { return c.n }
func (c *chainEnv) ActionSize() int { return 2 }

func (c *chainEnv) ValidActions() []int {
	if c.pos == c.n-1 {
		return nil
	}
	if c.pos == 0 {
		return []int{1}
	}
	return []int{0, 1}
}

func (c *chainEnv) Step(a int) ([]float64, float64, bool, error) {
	if c.pos == c.n-1 {
		return nil, 0, true, ErrEpisodeDone
	}
	switch a {
	case 0:
		if c.pos > 0 {
			c.pos--
		}
	case 1:
		c.pos++
	}
	if c.pos == c.n-1 {
		return c.encode(), 1, true, nil
	}
	return c.encode(), 0, false, nil
}

func TestReplayBuffer(t *testing.T) {
	rb := NewReplayBuffer(3)
	if rb.Len() != 0 {
		t.Fatalf("fresh buffer len = %d", rb.Len())
	}
	for i := 0; i < 5; i++ {
		rb.Add(Transition{Action: i})
	}
	if rb.Len() != 3 {
		t.Fatalf("capped len = %d, want 3", rb.Len())
	}
	// Oldest entries (0, 1) were evicted.
	rng := mathx.NewRand(1)
	sample, slots := make([]Transition, 50), make([]int, 50)
	if n := rb.SampleInto(rng, sample, slots); n != 50 {
		t.Fatalf("sampled %d of 50", n)
	}
	for _, tr := range sample {
		if tr.Action < 2 {
			t.Fatalf("evicted transition sampled: %d", tr.Action)
		}
	}
	if got := NewReplayBuffer(0); got.capacity != 1 {
		t.Fatal("capacity < 1 should clamp to 1")
	}
	empty := NewReplayBuffer(4)
	if n := empty.SampleInto(rng, sample, slots); n != 0 {
		t.Fatalf("sampled %d transitions from an empty buffer", n)
	}
}

func TestEpsilonSchedule(t *testing.T) {
	e := EpsilonSchedule{Start: 1, End: 0.1, DecaySteps: 10}
	if got := e.At(0); got != 1 {
		t.Errorf("At(0) = %v", got)
	}
	if got := e.At(10); got != 0.1 {
		t.Errorf("At(10) = %v", got)
	}
	if got := e.At(100); got != 0.1 {
		t.Errorf("At(100) = %v", got)
	}
	if got := e.At(5); math.Abs(got-0.55) > 1e-12 {
		t.Errorf("At(5) = %v, want 0.55", got)
	}
	if got := e.At(-3); got != 1 {
		t.Errorf("At(-3) = %v, want Start", got)
	}
	zero := EpsilonSchedule{Start: 1, End: 0.2}
	if got := zero.At(0); got != 0.2 {
		t.Errorf("zero decay At(0) = %v, want End", got)
	}
}

func TestMaxArgmaxHelpers(t *testing.T) {
	q := []float64{5, 1, 9, 3}
	if got := maxOver(q, []int{1, 3}); got != 3 {
		t.Errorf("maxOver = %v", got)
	}
	if got := maxOver(q, nil); got != 0 {
		t.Errorf("maxOver empty = %v, want 0", got)
	}
	a, err := ArgmaxOver(q, []int{0, 2, 3})
	if err != nil || a != 2 {
		t.Errorf("ArgmaxOver = %d, %v", a, err)
	}
	if _, err := ArgmaxOver(q, nil); !errors.Is(err, ErrNoActions) {
		t.Errorf("ArgmaxOver empty err = %v", err)
	}
}

func TestDQNLearnsChain(t *testing.T) {
	env := newChainEnv(5)
	agent, err := NewDQN(env.StateSize(), env.ActionSize(), DQNConfig{
		Hidden:          []int{24},
		Epsilon:         EpsilonSchedule{Start: 1, End: 0.02, DecaySteps: 800},
		TargetSyncEvery: 50,
		WarmupSteps:     32,
		Seed:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Train(env, 250, 60); err != nil {
		t.Fatal(err)
	}
	actions, total, err := agent.RunGreedy(env, 60)
	if err != nil {
		t.Fatal(err)
	}
	if total != 1 {
		t.Fatalf("greedy return = %v, want 1", total)
	}
	if len(actions) != 4 {
		t.Fatalf("greedy episode length = %d, want 4 (straight right)", len(actions))
	}
}

func TestDQNValidation(t *testing.T) {
	if _, err := NewDQN(0, 2, DQNConfig{}); err == nil {
		t.Fatal("zero state size should error")
	}
	if _, err := NewDQN(3, 0, DQNConfig{}); err == nil {
		t.Fatal("zero action size should error")
	}
	agent, err := NewDQN(3, 2, DQNConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.SelectAction([]float64{1, 0, 0}, nil); !errors.Is(err, ErrNoActions) {
		t.Fatalf("no valid actions err = %v", err)
	}
	if _, err := agent.QValues([]float64{1}); err == nil {
		t.Fatal("bad state size should error")
	}
}

func TestDQNDeterminism(t *testing.T) {
	mk := func() float64 {
		env := newChainEnv(4)
		agent, err := NewDQN(env.StateSize(), env.ActionSize(), DQNConfig{
			Hidden: []int{16}, Seed: 9, WarmupSteps: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := agent.Train(env, 50, 40)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanReward
	}
	if mk() != mk() {
		t.Fatal("same seed must reproduce the same training trajectory")
	}
}

func TestChainEnvStepAfterDone(t *testing.T) {
	env := newChainEnv(2)
	env.Reset()
	if _, _, done, err := env.Step(1); err != nil || !done {
		t.Fatalf("reaching the end: done=%v err=%v", done, err)
	}
	if _, _, _, err := env.Step(1); !errors.Is(err, ErrEpisodeDone) {
		t.Fatalf("step after done err = %v", err)
	}
}

func TestDoubleDQNLearnsChain(t *testing.T) {
	env := newChainEnv(5)
	agent, err := NewDQN(env.StateSize(), env.ActionSize(), DQNConfig{
		Hidden:          []int{24},
		Epsilon:         EpsilonSchedule{Start: 1, End: 0.02, DecaySteps: 800},
		TargetSyncEvery: 50,
		WarmupSteps:     32,
		DoubleDQN:       true,
		Seed:            4,
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
		t.Fatalf("double-DQN greedy return = %v, want 1", total)
	}
}
