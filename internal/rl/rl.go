// Package rl provides the reinforcement-learning machinery behind the
// paper's CRL model (§III): a Markov-decision-process abstraction, an
// experience-replay buffer, an ε-greedy exploration schedule, a Deep
// Q-Network agent over internal/neural, and a tabular Q-learning baseline
// used by tests to validate the DQN against a known-convergent method.
package rl

import (
	"errors"
	"fmt"
	"math"
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

// ReplayBuffer is a bounded FIFO of transitions with uniform sampling, and —
// when built with NewPrioritizedReplayBuffer — TD-error-proportional
// prioritized sampling (Schaul et al.) over a sum tree.
type ReplayBuffer struct {
	capacity int
	// buf is the ring, allocated by the first Add: an agent that never learns
	// (an inference replica) never pays for capacity × Transition headers.
	buf  []Transition
	next int
	full bool

	// Prioritized-sampling state; alpha is 0 and tree stays nil for plain
	// uniform buffers, and tree is allocated with buf.
	// tree is an iterative segment tree: leaves at [cap, 2·cap) hold each
	// slot's priority^alpha, internal node i sums children 2i and 2i+1, so
	// updates and proportional descent are O(log cap) with no allocation.
	alpha   float64
	tree    []float64
	maxPrio float64 // largest stored priority^alpha; seeds new entries
}

// NewReplayBuffer creates a buffer holding up to capacity transitions.
// capacity < 1 is treated as 1.
func NewReplayBuffer(capacity int) *ReplayBuffer {
	if capacity < 1 {
		capacity = 1
	}
	return &ReplayBuffer{capacity: capacity}
}

// NewPrioritizedReplayBuffer creates a buffer whose SamplePrioritizedInto
// draws transitions with probability ∝ priority^alpha. alpha ≤ 0 degenerates
// to the plain uniform sampler: sampling then consumes the RNG exactly like
// SampleInto and every importance weight is exactly 1, so a seeded run is
// bitwise-identical to a uniform buffer — the equivalence tests pin this.
func NewPrioritizedReplayBuffer(capacity int, alpha float64) *ReplayBuffer {
	r := NewReplayBuffer(capacity)
	if alpha <= 0 {
		return r
	}
	r.alpha = alpha
	r.maxPrio = 1
	return r
}

// Prioritized reports whether the buffer samples by priority.
func (r *ReplayBuffer) Prioritized() bool { return r.alpha > 0 }

// Add appends a transition, evicting the oldest when full. In a prioritized
// buffer the new entry gets the largest priority seen so far, guaranteeing
// every transition is replayed at least once before its priority decays.
func (r *ReplayBuffer) Add(t Transition) {
	if r.buf == nil {
		r.buf = make([]Transition, r.capacity)
		if r.Prioritized() {
			r.tree = make([]float64, 2*r.capacity)
		}
	}
	slot := r.next
	r.buf[slot] = t
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	if r.tree != nil {
		r.setLeaf(slot, r.maxPrio)
	}
}

// setLeaf writes an already-exponentiated priority into the tree.
func (r *ReplayBuffer) setLeaf(slot int, p float64) {
	i := slot + len(r.buf)
	r.tree[i] = p
	for i >>= 1; i >= 1; i >>= 1 {
		r.tree[i] = r.tree[2*i] + r.tree[2*i+1]
	}
}

// UpdatePriority sets slot's raw priority (|TD error| + ε by convention);
// the stored mass is priority^alpha. No-op on uniform buffers.
func (r *ReplayBuffer) UpdatePriority(slot int, priority float64) {
	if r.tree == nil || slot < 0 || slot >= len(r.buf) {
		return
	}
	if priority <= 0 {
		priority = 1e-12 // keep every slot reachable
	}
	p := math.Pow(priority, r.alpha)
	if p > r.maxPrio {
		r.maxPrio = p
	}
	r.setLeaf(slot, p)
}

// SamplePrioritizedInto fills dst with priority-proportional samples (with
// replacement), recording each sample's buffer slot in slots and its
// max-normalized importance-sampling weight (N·P(i))^−β / max_j w_j in
// weights. Like SampleInto it allocates nothing and reports how many entries
// were filled. On a uniform buffer (or alpha ≤ 0) it falls back to the exact
// uniform path: same rng.Intn consumption, weights all exactly 1.
func (r *ReplayBuffer) SamplePrioritizedInto(rng *rand.Rand, dst []Transition,
	slots []int, weights []float64, beta float64) int {
	sz := r.Len()
	if sz == 0 {
		return 0
	}
	if r.tree == nil || r.tree[1] <= 0 {
		for i := range dst {
			j := rng.Intn(sz)
			dst[i] = r.buf[j]
			slots[i] = j
			weights[i] = 1
		}
		return len(dst)
	}
	n := len(r.buf)
	total := r.tree[1]
	maxW := 0.0
	for i := range dst {
		v := rng.Float64() * total
		j := 1
		for j < n {
			if left := r.tree[2*j]; v < left {
				j = 2 * j
			} else {
				v -= left
				j = 2*j + 1
			}
		}
		slot := j - n
		dst[i] = r.buf[slot]
		slots[i] = slot
		prob := r.tree[j] / total
		w := math.Pow(float64(sz)*prob, -beta)
		weights[i] = w
		if w > maxW {
			maxW = w
		}
	}
	if maxW > 0 {
		for i := range weights[:len(dst)] {
			weights[i] /= maxW
		}
	}
	return len(dst)
}

// Len returns the number of stored transitions.
func (r *ReplayBuffer) Len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Sample draws n transitions uniformly with replacement.
// It returns fewer (possibly zero) entries only when the buffer is empty.
func (r *ReplayBuffer) Sample(rng *rand.Rand, n int) []Transition {
	sz := r.Len()
	if sz == 0 {
		return nil
	}
	out := make([]Transition, n)
	r.SampleInto(rng, out)
	return out
}

// SampleInto fills dst with uniformly sampled transitions (with replacement)
// without allocating, the hot-path variant of Sample. It reports how many
// entries were filled: len(dst), or 0 when the buffer is empty.
func (r *ReplayBuffer) SampleInto(rng *rand.Rand, dst []Transition) int {
	sz := r.Len()
	if sz == 0 {
		return 0
	}
	for i := range dst {
		dst[i] = r.buf[rng.Intn(sz)]
	}
	return len(dst)
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

// validateEnv sanity-checks an environment's static contract.
func validateEnv(env Environment) error {
	if env.StateSize() < 1 {
		return fmt.Errorf("rl: state size %d", env.StateSize())
	}
	if env.ActionSize() < 1 {
		return fmt.Errorf("rl: action size %d", env.ActionSize())
	}
	return nil
}
