package core

import (
	"fmt"
	"sort"

	"repro/internal/rl"
)

// Environment is the RL environment matrix of §III-D,
// e = [I_j × V_p]_{N×M}, together with the raw quantities needed to rebuild
// an allocation problem and the sensing signature Z used for clustering.
type Environment struct {
	// Importance is I per task (length N).
	Importance []float64
	// Capacity is V per processor (length M).
	Capacity []float64
	// Signature is the sensing data Z (current scenario and configuration
	// settings) the kNN environment definition clusters on.
	Signature []float64
}

// Matrix materializes e = [I_j × V_p], row-major tasks × processors, with
// capacities normalized by their maximum so inputs stay in [0, 1].
func (e *Environment) Matrix() []float64 {
	n, m := len(e.Importance), len(e.Capacity)
	maxCap := e.maxCapacity()
	out := make([]float64, n*m)
	for j := 0; j < n; j++ {
		for p := 0; p < m; p++ {
			out[j*m+p] = e.Importance[j] * (e.Capacity[p] / maxCap)
		}
	}
	return out
}

// maxCapacity is the normalizer of Matrix: the largest capacity, or 1 when
// every capacity is zero.
func (e *Environment) maxCapacity() float64 {
	maxCap := 0.0
	for _, c := range e.Capacity {
		if c > maxCap {
			maxCap = c
		}
	}
	if maxCap == 0 {
		maxCap = 1
	}
	return maxCap
}

// EnvironmentOf extracts the Environment of a TATIM problem with the given
// sensing signature.
func EnvironmentOf(p *Problem, signature []float64) *Environment {
	imp := make([]float64, len(p.Tasks))
	for i, t := range p.Tasks {
		imp[i] = t.Importance
	}
	caps := make([]float64, len(p.Processors))
	for i, pr := range p.Processors {
		caps[i] = pr.Capacity
	}
	sig := make([]float64, len(signature))
	copy(sig, signature)
	return &Environment{Importance: imp, Capacity: caps, Signature: sig}
}

// AllocEnv is the allocation episode MDP of §III-D implemented as an
// rl.Environment:
//
//   - state: the N×M binary selection matrix S (flattened), concatenated
//     with the environment matrix e so one policy generalizes across
//     environments (the paper's feature space X = (e, s₀));
//   - actions: one task per time step ("we allow the agent to execute merely
//     one action in each time step"), assigned to the episode's current
//     processor, plus one skip action that advances to the next processor —
//     keeping the action space linear instead of 2^(N×M);
//   - reward: Σ_j I_j of all allocated tasks, granted only at the terminal
//     state, 0 otherwise (§III-D "Reward Function").
type AllocEnv struct {
	problem *Problem
	env     *Environment
	// DenseReward switches to per-step rewards (ablation of the paper's
	// terminal-only design).
	DenseReward bool

	envMatrix  []float64
	maxCap     float64   // envMatrix's capacity normalizer; capacities never change
	state      []float64 // selection matrix S, length N*M
	assigned   []int     // task → processor or Unassigned
	unassigned int       // tasks still Unassigned; 0 ends the episode
	remTime    []float64
	remRes     []float64
	// procOrder visits processors fastest-first: the operator fills the
	// most capable node before advancing, so skipping early costs the most
	// valuable capacity — a natural curriculum for the agent.
	procOrder []int
	current   int // index into procOrder
	done      bool
}

// NewAllocEnv builds the MDP for one TATIM problem.
func NewAllocEnv(p *Problem, signature []float64) (*AllocEnv, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e := &AllocEnv{
		problem: p,
		env:     EnvironmentOf(p, signature),
	}
	e.envMatrix = e.env.Matrix()
	e.maxCap = e.env.maxCapacity()
	e.procOrder = make([]int, len(p.Processors))
	for i := range e.procOrder {
		e.procOrder[i] = i
	}
	sort.SliceStable(e.procOrder, func(a, b int) bool {
		return p.Processors[e.procOrder[a]].SpeedFactor > p.Processors[e.procOrder[b]].SpeedFactor
	})
	e.Reset()
	return e, nil
}

// N returns the task count.
func (e *AllocEnv) N() int { return len(e.problem.Tasks) }

// M returns the processor count.
func (e *AllocEnv) M() int { return len(e.problem.Processors) }

// SkipAction is the action index that advances to the next processor.
func (e *AllocEnv) SkipAction() int { return e.N() }

// Reset starts a fresh episode. Internal episode buffers are reused across
// resets (nothing outside the env aliases them — encode and Allocation both
// copy), so per-episode setup is allocation-free after the first call.
func (e *AllocEnv) Reset() []float64 {
	e.Restart()
	return e.encode()
}

// Restart reinitializes the episode state in place: Reset without the state
// encoding it allocates (rl.InPlaceEnvironment).
func (e *AllocEnv) Restart() {
	n, m := e.N(), e.M()
	if len(e.state) != n*m {
		e.state = make([]float64, n*m)
		e.assigned = make([]int, n)
		e.remTime = make([]float64, m)
		e.remRes = make([]float64, m)
	}
	for i := range e.state {
		e.state[i] = 0
	}
	for i := range e.assigned {
		e.assigned[i] = Unassigned
	}
	e.unassigned = n
	for i, pr := range e.problem.Processors {
		e.remTime[i] = e.problem.TimeLimit
		e.remRes[i] = pr.Capacity
	}
	e.current = 0
	e.done = false
}

// Reinit rebinds the env to a new importance vector and starts a fresh
// episode, all in place: the owned problem's task importances are overwritten
// (clamped to [0,1], matching CRL.problemFor) and the environment matrix is
// recomputed into its existing buffer. The problem structure (costs,
// processors, time limit) is unchanged, so a pooled inference lane serves any
// request against the same template without per-request allocation. The
// sensing signature is not part of the state encoding and is left alone.
func (e *AllocEnv) Reinit(importance []float64) error {
	n, m := e.N(), e.M()
	if len(importance) != n {
		return fmt.Errorf("core: reinit with %d importances for %d tasks", len(importance), n)
	}
	for j := range e.problem.Tasks {
		v := importance[j]
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		e.problem.Tasks[j].Importance = v
		e.env.Importance[j] = v
	}
	for j := 0; j < n; j++ {
		for p := 0; p < m; p++ {
			e.envMatrix[j*m+p] = e.env.Importance[j] * (e.env.Capacity[p] / e.maxCap)
		}
	}
	e.Restart()
	return nil
}

// StateSize is N*M (selection matrix) + N*M (environment matrix).
func (e *AllocEnv) StateSize() int { return 2 * e.N() * e.M() }

// ActionSize is N tasks + 1 skip.
func (e *AllocEnv) ActionSize() int { return e.N() + 1 }

func (e *AllocEnv) encode() []float64 {
	out := make([]float64, e.StateSize())
	e.StateInto(out)
	return out
}

// StateInto writes the current state encoding (selection matrix ++
// environment matrix) into dst, which must have length StateSize. The
// allocation-free variant of the encoding Reset/Step return.
func (e *AllocEnv) StateInto(dst []float64) {
	copy(dst, e.state)
	copy(dst[len(e.state):], e.envMatrix)
}

// curProc returns the processor the episode is currently filling.
func (e *AllocEnv) curProc() int { return e.procOrder[e.current] }

// ValidActions lists assignable tasks for the current processor plus skip.
// A finished episode has no valid actions.
func (e *AllocEnv) ValidActions() []int {
	if e.done {
		return nil
	}
	cur := e.curProc()
	var acts []int
	for j, t := range e.problem.Tasks {
		if e.assigned[j] != Unassigned {
			continue
		}
		if t.TimeCost <= e.remTime[cur]+1e-12 && t.Resource <= e.remRes[cur]+1e-12 {
			acts = append(acts, j)
		}
	}
	acts = append(acts, e.SkipAction())
	return acts
}

// ValidActionsInto is ValidActions appending into buf[:0], so steady-state
// batched rollouts reuse one buffer per lane. The action order (ascending
// task index, then skip) matches ValidActions exactly.
func (e *AllocEnv) ValidActionsInto(buf []int) []int {
	buf = buf[:0]
	if e.done {
		return buf
	}
	cur := e.curProc()
	for j, t := range e.problem.Tasks {
		if e.assigned[j] != Unassigned {
			continue
		}
		if t.TimeCost <= e.remTime[cur]+1e-12 && t.Resource <= e.remRes[cur]+1e-12 {
			buf = append(buf, j)
		}
	}
	return append(buf, e.SkipAction())
}

// OpenActionsInto appends into buf[:0] every still-unassigned task plus skip,
// whether or not the task fits the current processor: a superset of every
// ValidActions set until the next assignment, in the same order.
func (e *AllocEnv) OpenActionsInto(buf []int) []int {
	buf = buf[:0]
	for j, a := range e.assigned {
		if a == Unassigned {
			buf = append(buf, j)
		}
	}
	return append(buf, e.SkipAction())
}

// Step applies an action per the MDP above.
func (e *AllocEnv) Step(action int) ([]float64, float64, bool, error) {
	reward, done, err := e.StepInPlace(action)
	if err != nil {
		return nil, 0, done, err
	}
	return e.encode(), reward, done, nil
}

// StepInPlace is Step without the state encoding it allocates; read the state
// with StateInto (rl.InPlaceEnvironment).
func (e *AllocEnv) StepInPlace(action int) (float64, bool, error) {
	if e.done {
		return 0, true, rl.ErrEpisodeDone
	}
	reward, err := e.apply(action)
	if err != nil {
		return 0, false, err
	}
	if e.done && !e.DenseReward {
		// Terminal-only reward: Σ I_j over allocated tasks.
		reward = e.problem.Objective(e.assigned)
	}
	return reward, e.done, nil
}

// Apply advances the episode like Step but materializes neither the state
// encoding nor the reward — the batched greedy rollout reads the state via
// StateInto and only needs the final assignment, so the per-step encode
// allocation (and the Objective scan on sparse-reward terminals) is pure
// waste there. Returns whether the episode finished.
func (e *AllocEnv) Apply(action int) (bool, error) {
	if e.done {
		return true, rl.ErrEpisodeDone
	}
	if _, err := e.apply(action); err != nil {
		return false, err
	}
	return e.done, nil
}

// apply mutates the episode per the MDP, returning the dense-reward portion.
func (e *AllocEnv) apply(action int) (float64, error) {
	n, m := e.N(), e.M()
	if action < 0 || action > n {
		return 0, fmt.Errorf("core: action %d out of range [0,%d]", action, n)
	}
	reward := 0.0
	if action == e.SkipAction() {
		e.current++
		if e.current >= m {
			e.done = true
		}
	} else {
		j := action
		cur := e.curProc()
		t := e.problem.Tasks[j]
		if e.assigned[j] != Unassigned {
			return 0, fmt.Errorf("core: task %d already assigned", j)
		}
		if t.TimeCost > e.remTime[cur]+1e-12 || t.Resource > e.remRes[cur]+1e-12 {
			return 0, fmt.Errorf("core: task %d does not fit processor %d", j, cur)
		}
		e.assigned[j] = cur
		e.unassigned--
		e.remTime[cur] -= t.TimeCost
		e.remRes[cur] -= t.Resource
		e.state[j*m+cur] = 1
		if e.DenseReward {
			reward = t.Importance
		}
		if e.unassigned == 0 {
			e.done = true
		}
	}
	return reward, nil
}

// Done reports whether the episode has terminated.
func (e *AllocEnv) Done() bool { return e.done }

// Allocation returns a copy of the current assignment.
func (e *AllocEnv) Allocation() Allocation {
	return e.CopyAllocation(nil)
}

// CopyAllocation appends the current assignment into dst[:0], reusing its
// backing array when it is large enough.
func (e *AllocEnv) CopyAllocation(dst Allocation) Allocation {
	return append(dst[:0], e.assigned...)
}

var (
	_ rl.Environment        = (*AllocEnv)(nil)
	_ rl.InPlaceEnvironment = (*AllocEnv)(nil)
)
