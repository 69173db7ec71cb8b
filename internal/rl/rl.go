// Package rl provides the reinforcement-learning machinery behind the
// paper's CRL model (§III): a Markov-decision-process abstraction, an
// experience-replay buffer, an ε-greedy exploration schedule and a Deep
// Q-Network agent over internal/neural.
package rl

import (
	"errors"
	"fmt"
	"math/rand"
)

// Common errors.
var (
	// ErrNoActions is returned when an environment exposes no valid action.
	ErrNoActions = errors.New("rl: no valid actions")
	// ErrEpisodeDone is returned when acting on a finished episode.
	ErrEpisodeDone = errors.New("rl: episode already terminal")
)

// Environment is an episodic MDP with a fixed-size dense state encoding and
// a discrete action space of constant size; invalid actions per state are
// reported via ValidActions. This matches §III-D, where the state is the
// N×M selection matrix and the action picks one task per step.
type Environment interface {
	// Reset starts a new episode and returns the initial state encoding.
	Reset() []float64
	// StateSize returns the length of state encodings.
	StateSize() int
	// ActionSize returns the number of discrete actions.
	ActionSize() int
	// ValidActions returns the currently admissible actions.
	ValidActions() []int
	// Step applies the action and returns (nextState, reward, done).
	Step(action int) (state []float64, reward float64, done bool, err error)
}

// Transition is one replay-buffer record.
type Transition struct {
	State     []float64
	Action    int
	Reward    float64
	NextState []float64
	// NextValid lists the valid actions in NextState; the Bellman backup
	// maxes only over these.
	NextValid []int
	Done      bool
}

// InPlaceEnvironment is an Environment driven without per-step garbage: the
// state and the valid-action set are written into caller-owned buffers and a
// step returns only the reward. DQN.Train runs every episode through it
// (core.AllocEnv implements it; any other Environment is adapted).
type InPlaceEnvironment interface {
	StateSize() int
	ActionSize() int
	// Restart starts a new episode.
	Restart()
	// StateInto writes the current state encoding into dst (length StateSize).
	StateInto(dst []float64)
	// ValidActionsInto appends the currently admissible actions to buf[:0].
	ValidActionsInto(buf []int) []int
	// StepInPlace applies the action and returns (reward, done).
	StepInPlace(action int) (reward float64, done bool, err error)
}

// copyingEnv adapts a plain Environment to InPlaceEnvironment by copying out
// of the slices it allocates.
type copyingEnv struct {
	Environment
	state []float64
}

func (c *copyingEnv) Restart()                { c.state = c.Reset() }
func (c *copyingEnv) StateInto(dst []float64) { copy(dst, c.state) }

func (c *copyingEnv) ValidActionsInto(buf []int) []int {
	return append(buf[:0], c.ValidActions()...)
}

func (c *copyingEnv) StepInPlace(action int) (float64, bool, error) {
	next, reward, done, err := c.Step(action)
	if n := c.StateSize(); err == nil && (len(c.state) != n || !done && len(next) != n) {
		err = fmt.Errorf("rl: environment state of %d then %d values, want %d", len(c.state), len(next), n)
	}
	c.state = next
	return reward, done, err
}

// replayInitSlots is the ring's size after the first Add; it doubles from
// there up to the capacity.
const replayInitSlots = 64

// ReplayBuffer is a bounded FIFO of transitions with uniform sampling.
//
// The ring owns its storage: Add copies State, NextState and NextValid, and a
// transition handed out by SampleInto is a view into the ring, valid until the
// next Add. State vectors of evicted transitions are reused.
type ReplayBuffer struct {
	capacity int
	// buf is the ring, allocated by the first Add and grown by doubling up to
	// capacity: an agent that never learns (an inference replica) pays for
	// nothing, a training that observes 56 transitions for 64 slots. Slot
	// numbers never move: transition n lives in slot n mod capacity.
	buf  []Transition
	meta []slotMeta // per slot, parallel to buf
	next int
	full bool
	free [][]float64 // state vectors of evicted transitions
	// actions is the owning agent's action count (0 in a bare buffer): the
	// width of a memo row and the room every slot's NextValid is given, so
	// that overwriting a slot never has to grow it.
	actions int

	// memo holds, per slot, the target network's Q row for the slot's
	// NextState (memoRow). Evaluating the target on a subset of a mini-batch's
	// rows, or on each row once instead of once per duplicate, is bitwise the
	// full-batch evaluation: a row of mathx.MatMulTransBCols depends on no
	// other row — the columns that only other rows make nonzero add 0·w to an
	// accumulator that started at +0 — so a memoised row is the row the frozen
	// target would produce again.
	memo []float64
}

// slotMeta is what the ring knows about a slot beside its transition.
type slotMeta struct {
	// nextShared: the following transition's State is this one's NextState
	// (one vector, freed when that transition is evicted).
	nextShared bool
	// memoVer is 1 + the target version the slot's memo row was computed
	// under; 0 after the slot is overwritten.
	memoVer int
}

// NewReplayBuffer creates a buffer holding up to capacity transitions.
// capacity < 1 is treated as 1.
func NewReplayBuffer(capacity int) *ReplayBuffer {
	if capacity < 1 {
		capacity = 1
	}
	return &ReplayBuffer{capacity: capacity}
}

// Add appends a copy of the transition, evicting the oldest when full.
func (r *ReplayBuffer) Add(t Transition) { r.add(t, false) }

// add stores t. follows means t is the step after the transition added last,
// so its State is that transition's NextState: the ring shares the vector it
// already holds instead of storing the state twice, and t.State is not read.
func (r *ReplayBuffer) add(t Transition, follows bool) {
	if r.next == len(r.buf) && len(r.buf) < r.capacity {
		n := min(max(replayInitSlots, 2*len(r.buf)), r.capacity)
		r.buf = append(make([]Transition, 0, n), r.buf...)[:n]
		r.meta = append(make([]slotMeta, 0, n), r.meta...)[:n]
	}
	slot := r.next
	state := t.State
	if follows {
		last := (slot + len(r.buf) - 1) % len(r.buf)
		state, r.meta[last].nextShared = r.buf[last].NextState, true
	}
	old, m := &r.buf[slot], &r.meta[slot]
	r.release(old.State)
	if !m.nextShared {
		r.release(old.NextState)
	}
	if !follows {
		state = r.own(state)
	}
	valid := old.NextValid[:0]
	if cap(valid) < len(t.NextValid) {
		valid = make([]int, 0, max(r.actions, len(t.NextValid)))
	}
	*m = slotMeta{}
	*old = Transition{
		State: state, Action: t.Action, Reward: t.Reward, NextState: r.own(t.NextState),
		NextValid: append(valid, t.NextValid...), Done: t.Done,
	}
	r.next++
	if r.next == r.capacity {
		r.next = 0
		r.full = true
	}
}

// own returns a ring-owned copy of a state vector (nil stays nil).
func (r *ReplayBuffer) own(src []float64) []float64 {
	if src == nil {
		return nil
	}
	var dst []float64
	if n := len(r.free); n > 0 && cap(r.free[n-1]) >= len(src) {
		dst, r.free = r.free[n-1][:len(src)], r.free[:n-1]
	} else {
		dst = make([]float64, len(src))
	}
	copy(dst, src)
	return dst
}

// release keeps an evicted transition's state vector for reuse.
func (r *ReplayBuffer) release(v []float64) {
	if v != nil {
		r.free = append(r.free, v)
	}
}

// memoRow returns slot's memo row and whether it was written under target
// version ver. A row that was not is stamped ver, and the caller fills it
// before anything reads it — a second sample of the same slot in one
// mini-batch then finds it fresh and shares it.
func (r *ReplayBuffer) memoRow(slot, ver int) ([]float64, bool) {
	if n := len(r.buf) * r.actions; len(r.memo) < n {
		r.memo = append(make([]float64, 0, n), r.memo...)[:n]
	}
	m := &r.meta[slot]
	fresh := m.memoVer == ver+1
	m.memoVer = ver + 1
	return r.memo[slot*r.actions : (slot+1)*r.actions], fresh
}

// SampleInto fills dst with samples drawn uniformly with replacement, one
// rng.Intn per sample, recording each sample's slot in slots. It allocates
// nothing and reports how many entries it filled — len(dst), or 0 when the
// buffer is empty.
func (r *ReplayBuffer) SampleInto(rng *rand.Rand, dst []Transition, slots []int) int {
	sz := r.Len()
	if sz == 0 {
		return 0
	}
	for i := range dst {
		j := rng.Intn(sz)
		dst[i] = r.buf[j]
		slots[i] = j
	}
	return len(dst)
}

// Len returns the number of stored transitions.
func (r *ReplayBuffer) Len() int {
	if r.full {
		return r.capacity
	}
	return r.next
}

// EpsilonSchedule is a linear ε decay from Start to End over DecaySteps.
type EpsilonSchedule struct {
	Start      float64
	End        float64
	DecaySteps int
}

// At returns ε after `step` agent steps.
func (e EpsilonSchedule) At(step int) float64 {
	if e.DecaySteps <= 0 || step >= e.DecaySteps {
		return e.End
	}
	if step < 0 {
		step = 0
	}
	frac := float64(step) / float64(e.DecaySteps)
	return e.Start + (e.End-e.Start)*frac
}

// maxOver returns the maximum of q over the idx subset, or 0 for empty idx
// (the convention for terminal states).
func maxOver(q []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	best := q[idx[0]]
	for _, i := range idx[1:] {
		if q[i] > best {
			best = q[i]
		}
	}
	return best
}

// ArgmaxOver returns the idx element maximizing q, breaking ties toward the
// lowest index. Empty idx returns an error.
func ArgmaxOver(q []float64, idx []int) (int, error) {
	if len(idx) == 0 {
		return 0, ErrNoActions
	}
	best := idx[0]
	for _, i := range idx[1:] {
		if q[i] > q[best] {
			best = i
		}
	}
	return best, nil
}

// validateEnv sanity-checks an environment's static contract from its
// sizes. It takes the sizes, not the environment: converting a caller's
// Environment or InPlaceEnvironment to a narrower interface goes through the
// runtime's type-assertion cache, which allocates a new cache at a random
// call — a stray allocation in the middle of allocation-free training.
func validateEnv(stateSize, actionSize int) error {
	if stateSize < 1 {
		return fmt.Errorf("rl: state size %d", stateSize)
	}
	if actionSize < 1 {
		return fmt.Errorf("rl: action size %d", actionSize)
	}
	return nil
}
