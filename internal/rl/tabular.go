package rl

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// TabularQ is classic Watkins Q-learning over a hash of the state encoding.
// The paper cites Watkins & Dayan's convergence guarantee (§III-D,
// "Convergence Analysis"); this agent is the reference the DQN is validated
// against on small environments, and an ablation baseline.
type TabularQ struct {
	// Alpha is the learning rate.
	Alpha float64
	// Gamma is the discount factor.
	Gamma float64
	// Epsilon is the exploration schedule.
	Epsilon EpsilonSchedule

	q          map[string][]float64
	actionSize int
	rng        *rand.Rand
	steps      int
}

// NewTabularQ creates a tabular agent for a discrete action space.
func NewTabularQ(actionSize int, seed int64) (*TabularQ, error) {
	if actionSize < 1 {
		return nil, fmt.Errorf("tabular q: action size %d", actionSize)
	}
	return &TabularQ{
		Alpha:      0.2,
		Gamma:      0.95,
		Epsilon:    EpsilonSchedule{Start: 1, End: 0.02, DecaySteps: 3000},
		q:          make(map[string][]float64),
		actionSize: actionSize,
		rng:        rand.New(rand.NewSource(seed)),
	}, nil
}

// key discretizes a state encoding into a map key. The allocation MDP's
// states are already binary matrices, so rounding to 4 decimals is lossless
// there and merely coarse elsewhere.
func (t *TabularQ) key(state []float64) string {
	var b strings.Builder
	for i, v := range state {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(v, 'f', 4, 64))
	}
	return b.String()
}

func (t *TabularQ) row(state []float64) []float64 {
	k := t.key(state)
	r, ok := t.q[k]
	if !ok {
		r = make([]float64, t.actionSize)
		t.q[k] = r
	}
	return r
}

// SelectAction picks ε-greedily among valid actions.
func (t *TabularQ) SelectAction(state []float64, valid []int) (int, error) {
	if len(valid) == 0 {
		return 0, ErrNoActions
	}
	if t.rng.Float64() < t.Epsilon.At(t.steps) {
		return valid[t.rng.Intn(len(valid))], nil
	}
	return ArgmaxOver(t.row(state), valid)
}

// Observe applies the Q-learning update for one transition.
func (t *TabularQ) Observe(tr Transition) error {
	if tr.Action < 0 || tr.Action >= t.actionSize {
		return fmt.Errorf("tabular q: action %d out of range [0,%d)", tr.Action, t.actionSize)
	}
	t.steps++
	row := t.row(tr.State)
	qNext := 0.0
	if !tr.Done {
		qNext = maxOver(t.row(tr.NextState), tr.NextValid)
	}
	target := tr.Reward + t.Gamma*qNext
	row[tr.Action] += t.Alpha * (target - row[tr.Action])
	return nil
}

// Train runs episodes on env with online updates, mirroring DQN.Train.
func (t *TabularQ) Train(env Environment, episodes, maxSteps int) (*TrainResult, error) {
	if err := validateEnv(env.StateSize(), env.ActionSize()); err != nil {
		return nil, err
	}
	if maxSteps <= 0 {
		maxSteps = env.StateSize()*env.StateSize() + 1
	}
	res := &TrainResult{Episodes: episodes}
	for ep := 0; ep < episodes; ep++ {
		state := env.Reset()
		var total float64
		for step := 0; step < maxSteps; step++ {
			valid := env.ValidActions()
			if len(valid) == 0 {
				break
			}
			a, err := t.SelectAction(state, valid)
			if err != nil {
				return nil, err
			}
			next, reward, done, err := env.Step(a)
			if err != nil {
				return nil, fmt.Errorf("episode %d step %d: %w", ep, step, err)
			}
			total += reward
			tr := Transition{State: state, Action: a, Reward: reward, NextState: next, Done: done}
			if !done {
				tr.NextValid = env.ValidActions()
			}
			if err := t.Observe(tr); err != nil {
				return nil, err
			}
			state = next
			res.TotalSteps++
			if done {
				break
			}
		}
		res.RewardsPerEp = append(res.RewardsPerEp, total)
	}
	if n := len(res.RewardsPerEp); n > 0 {
		var s float64
		for _, r := range res.RewardsPerEp {
			s += r
		}
		res.MeanReward = s / float64(n)
		res.FinalReward = res.RewardsPerEp[n-1]
	}
	return res, nil
}

// GreedyAction returns the argmax action among valid for state.
func (t *TabularQ) GreedyAction(state []float64, valid []int) (int, error) {
	return ArgmaxOver(t.row(state), valid)
}

// States returns the number of distinct states seen.
func (t *TabularQ) States() int { return len(t.q) }
