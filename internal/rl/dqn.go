package rl

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mathx"
	"repro/internal/neural"
)

// DQNConfig parameterizes a DQN agent.
type DQNConfig struct {
	// Hidden lists hidden-layer widths (default [64, 64]).
	Hidden []int
	// Gamma is the discount factor λ of the paper's five-tuple (default 0.95).
	Gamma float64
	// LearningRate is the Q-network SGD step (default 0.005).
	LearningRate float64
	// Epsilon is the exploration schedule (default 1.0 → 0.05 over 2000 steps).
	Epsilon EpsilonSchedule
	// ReplayCapacity bounds the experience buffer (default 10000).
	ReplayCapacity int
	// BatchSize is the replay mini-batch per step (default 32).
	BatchSize int
	// TargetSyncEvery syncs the target net every so many steps (default 200).
	TargetSyncEvery int
	// WarmupSteps delays learning until the buffer has this many entries
	// (default 100).
	WarmupSteps int
	// DoubleDQN selects the bootstrap action with the online network and
	// evaluates it with the target network (van Hasselt's Double DQN),
	// reducing the max-operator's overestimation bias. Off by default — the
	// paper uses plain deep Q-learning.
	DoubleDQN bool
	// PrioritizedReplay samples replay transitions with probability
	// proportional to |TD error|^PriorityAlpha instead of uniformly, with
	// importance-sampling weight correction (Schaul et al.) — cold policies
	// re-learn their surprising transitions first and converge in fewer
	// episodes. Off by default.
	PrioritizedReplay bool
	// PriorityAlpha is the prioritization exponent. 0 keeps sampling exactly
	// uniform (same RNG stream, unit weights — the A/B-equivalence knob);
	// typical transfer settings use 0.6. Only read when PrioritizedReplay.
	PriorityAlpha float64
	// PriorityBeta is the importance-sampling correction exponent (default
	// 0.4 when PrioritizedReplay).
	PriorityBeta float64
	// PriorityEps is added to |TD error| so no transition starves
	// (default 1e-3).
	PriorityEps float64
	// Seed drives all agent randomness.
	Seed int64
}

func (c DQNConfig) withDefaults() DQNConfig {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{64, 64}
	}
	if c.Gamma <= 0 || c.Gamma > 1 {
		c.Gamma = 0.95
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.005
	}
	if c.Epsilon == (EpsilonSchedule{}) {
		c.Epsilon = EpsilonSchedule{Start: 1.0, End: 0.05, DecaySteps: 2000}
	}
	if c.ReplayCapacity < 1 {
		c.ReplayCapacity = 10000
	}
	if c.BatchSize < 1 {
		c.BatchSize = 32
	}
	if c.TargetSyncEvery < 1 {
		c.TargetSyncEvery = 200
	}
	if c.WarmupSteps < 1 {
		c.WarmupSteps = 100
	}
	if c.PrioritizedReplay {
		if c.PriorityBeta <= 0 {
			c.PriorityBeta = 0.4
		}
		if c.PriorityEps <= 0 {
			c.PriorityEps = 1e-3
		}
	}
	return c
}

// DQN is a Deep Q-Network agent: an online Q-network trained against a
// periodically synced target network from uniformly sampled replay
// transitions — the optimization of the paper's Alg. 1 lines 3-6. Each
// learning step evaluates the whole replay mini-batch in one target-network
// ForwardBatch and applies one accumulated TrainBatch optimizer step, so the
// per-step cost is a handful of GEMMs instead of 2×BatchSize scalar passes.
// Inference comes in two forms: QValues / GreedyAction / RunGreedy run the
// full forward per state, and Online hands the network to callers that
// evaluate it incrementally (core.CRL.PredictBatchInto, whose consecutive
// states differ in one input cell).
type DQN struct {
	cfg    DQNConfig
	online *neural.Network
	// target is nil while it would equal the online network — before the
	// first learning step, after UnmarshalPolicy, in a Clone — and is
	// materialized by ensureTarget when learning needs it, so an agent that
	// only ever infers holds one network, not two.
	target *neural.Network
	replay *ReplayBuffer
	rng    *rand.Rand
	steps  int
	// warmup is the replay fill level learning waits for: cfg.WarmupSteps
	// normally, lowered to one mini-batch by CloneFrom (a warm-started agent
	// starts competent, so it fine-tunes as soon as a batch of fresh
	// experience exists instead of idling through a full exploration warmup).
	warmup int

	// Reusable mini-batch scratch: sampled transitions plus the state,
	// next-state, target and mask matrices handed to the batched network
	// kernels. Sized once from cfg.BatchSize, so steady-state Observe calls
	// allocate nothing. slots/weights/qNext serve the prioritized path:
	// sampled buffer slots (for priority write-back), importance-sampling
	// weights (fed through the mask, which TrainBatch treats as a per-output
	// weight) and per-row bootstrap values.
	batchTr []Transition
	states  *mathx.Matrix
	nexts   *mathx.Matrix
	targets *mathx.Matrix
	mask    *mathx.Matrix
	slots   []int
	weights []float64
	qNext   []float64
}

// NewDQN builds an agent for an environment with the given state/action
// sizes.
func NewDQN(stateSize, actionSize int, cfg DQNConfig) (*DQN, error) {
	if stateSize < 1 || actionSize < 1 {
		return nil, fmt.Errorf("dqn: state %d / action %d sizes", stateSize, actionSize)
	}
	cfg = cfg.withDefaults()
	layers := append(append([]int{stateSize}, cfg.Hidden...), actionSize)
	online, err := neural.New(neural.Config{
		Layers:       layers,
		LearningRate: cfg.LearningRate,
		Momentum:     0, // plain SGD keeps Q-targets stable
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("dqn online net: %w", err)
	}
	return &DQN{
		cfg:    cfg,
		online: online,
		replay: newReplayFor(cfg),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		warmup: cfg.WarmupSteps,
	}, nil
}

// newReplayFor builds the replay buffer matching cfg's sampling mode.
func newReplayFor(cfg DQNConfig) *ReplayBuffer {
	if cfg.PrioritizedReplay {
		return NewPrioritizedReplayBuffer(cfg.ReplayCapacity, cfg.PriorityAlpha)
	}
	return NewReplayBuffer(cfg.ReplayCapacity)
}

// QValues returns the online network's Q estimates for state s.
func (d *DQN) QValues(s []float64) ([]float64, error) {
	q, err := d.online.Forward(s)
	if err != nil {
		return nil, fmt.Errorf("dqn q-values: %w", err)
	}
	return q, nil
}

// SelectAction picks ε-greedily among valid actions.
func (d *DQN) SelectAction(s []float64, valid []int) (int, error) {
	if len(valid) == 0 {
		return 0, ErrNoActions
	}
	eps := d.cfg.Epsilon.At(d.steps)
	if d.rng.Float64() < eps {
		return valid[d.rng.Intn(len(valid))], nil
	}
	return d.GreedyAction(s, valid)
}

// GreedyAction picks the valid action with the highest Q estimate.
func (d *DQN) GreedyAction(s []float64, valid []int) (int, error) {
	q, err := d.QValues(s)
	if err != nil {
		return 0, err
	}
	return ArgmaxOver(q, valid)
}

// QValuesBatch evaluates the online network over a batch of states (one per
// row) in a single ForwardBatch pass. The returned matrix is scratch owned
// by the network, valid until the next forward or training call.
func (d *DQN) QValuesBatch(states *mathx.Matrix) (*mathx.Matrix, error) {
	q, err := d.online.ForwardBatch(states)
	if err != nil {
		return nil, fmt.Errorf("dqn q-values batch: %w", err)
	}
	return q, nil
}

// Online returns the online Q-network for inference surfaces that evaluate it
// incrementally instead of through QValues (neural's FirstLayerRange /
// AddFirstLayerColumn / ForwardTail, which write nothing to the network).
// Callers must not train it.
func (d *DQN) Online() *neural.Network { return d.online }

// ensureTarget materializes the target network, in sync with the online one.
func (d *DQN) ensureTarget() error {
	if d.target != nil {
		return nil
	}
	target, err := d.online.Clone()
	if err != nil {
		return fmt.Errorf("dqn target net: %w", err)
	}
	d.target = target
	return nil
}

// ensureBatch sizes the reusable mini-batch scratch.
func (d *DQN) ensureBatch() {
	if d.batchTr != nil {
		return
	}
	b := d.cfg.BatchSize
	d.batchTr = make([]Transition, b)
	d.states = mathx.NewMatrix(b, d.online.InputSize())
	d.nexts = mathx.NewMatrix(b, d.online.InputSize())
	d.targets = mathx.NewMatrix(b, d.online.OutputSize())
	d.mask = mathx.NewMatrix(b, d.online.OutputSize())
	d.slots = make([]int, b)
	d.weights = make([]float64, b)
	d.qNext = make([]float64, b)
}

// Observe records a transition and performs one learning step. It implements
// the loss of Alg. 1 line 4: (r + max_a' Q_target(s',a') − Q(s,a))², batched:
// all sampled next-states go through the target network in one ForwardBatch,
// and the online network takes a single optimizer step on the accumulated
// mini-batch gradient instead of BatchSize sequential updates.
func (d *DQN) Observe(t Transition) error {
	d.replay.Add(t)
	d.steps++
	if d.replay.Len() < d.warmup {
		return nil
	}
	d.ensureBatch()
	if err := d.ensureTarget(); err != nil {
		return err
	}
	prio := d.replay.Prioritized()
	if d.cfg.PrioritizedReplay {
		// With alpha <= 0 this is the exact uniform path (same RNG stream,
		// unit weights), keeping seeded runs bitwise-comparable.
		d.replay.SamplePrioritizedInto(d.rng, d.batchTr, d.slots, d.weights, d.cfg.PriorityBeta)
	} else {
		d.replay.SampleInto(d.rng, d.batchTr)
	}
	stateSize := d.online.InputSize()
	for i, tr := range d.batchTr {
		srow := d.states.Row(i)
		if len(tr.State) != stateSize {
			return fmt.Errorf("dqn observe: state size %d, want %d: %w",
				len(tr.State), stateSize, neural.ErrBadInput)
		}
		copy(srow, tr.State)
		nrow := d.nexts.Row(i)
		if tr.Done || tr.NextState == nil {
			// Terminal rows bootstrap to 0; feed a zero row so the batch
			// stays rectangular.
			for k := range nrow {
				nrow[k] = 0
			}
			continue
		}
		if len(tr.NextState) != stateSize {
			return fmt.Errorf("dqn observe: next state size %d, want %d: %w",
				len(tr.NextState), stateSize, neural.ErrBadInput)
		}
		copy(nrow, tr.NextState)
	}
	tq, err := d.target.ForwardBatch(d.nexts)
	if err != nil {
		return fmt.Errorf("dqn target forward: %w", err)
	}
	var oq *mathx.Matrix
	if d.cfg.DoubleDQN {
		// Select the bootstrap action with the online network, evaluate it
		// with the target network (van Hasselt). oq and tq live in the two
		// networks' separate scratch spaces, so both stay valid here.
		oq, err = d.online.ForwardBatch(d.nexts)
		if err != nil {
			return fmt.Errorf("dqn online forward: %w", err)
		}
	}
	// Bootstrap values must be gathered before any further online forward:
	// a later ForwardBatch would overwrite oq's scratch rows.
	for i, tr := range d.batchTr {
		d.qNext[i] = 0
		if tr.Done {
			continue
		}
		if oq != nil {
			if a, err := ArgmaxOver(oq.Row(i), tr.NextValid); err == nil {
				d.qNext[i] = tq.Row(i)[a]
			}
		} else {
			d.qNext[i] = maxOver(tq.Row(i), tr.NextValid)
		}
	}
	// Prioritized replay needs the pre-update Q(s,a) to refresh each sampled
	// slot's TD-error priority. This extra forward is deterministic and
	// RNG-free, so it does not perturb the uniform-equivalence invariant.
	var sq *mathx.Matrix
	if prio {
		if sq, err = d.online.ForwardBatch(d.states); err != nil {
			return fmt.Errorf("dqn priority forward: %w", err)
		}
	}
	for i, tr := range d.batchTr {
		y := tr.Reward + d.cfg.Gamma*d.qNext[i]
		// Train only the taken action's output; under prioritized replay the
		// mask carries the sample's importance weight (1 elsewhere means the
		// plain gate semantics are unchanged).
		trow, mrow := d.targets.Row(i), d.mask.Row(i)
		for k := range trow {
			trow[k], mrow[k] = 0, 0
		}
		trow[tr.Action] = y
		if d.cfg.PrioritizedReplay {
			mrow[tr.Action] = d.weights[i]
		} else {
			mrow[tr.Action] = 1
		}
		if prio {
			td := y - sq.Row(i)[tr.Action]
			d.replay.UpdatePriority(d.slots[i], math.Abs(td)+d.cfg.PriorityEps)
		}
	}
	if _, err := d.online.TrainBatch(d.states, d.targets, d.mask); err != nil {
		return fmt.Errorf("dqn train: %w", err)
	}
	if d.steps%d.cfg.TargetSyncEvery == 0 {
		if err := d.target.CopyWeightsFrom(d.online); err != nil {
			return fmt.Errorf("dqn target sync: %w", err)
		}
	}
	return nil
}

// Steps returns the number of observed transitions.
func (d *DQN) Steps() int { return d.steps }

// Clone returns an independent inference replica of the agent's policy: the
// online network's weights and biases are deep-copied and nothing else is —
// no optimizer state, no target network, an unallocated replay ring, a fresh
// RNG. A DQN is not goroutine-safe — even read-only inference (QValues,
// GreedyAction, RunGreedy) writes into the network's activation scratch — so
// concurrent inference runs on per-goroutine clones, and a clone costs what
// inference reads. A clone that is trained anyway starts its target network
// in sync with its online network.
func (d *DQN) Clone() (*DQN, error) {
	online, err := d.online.Clone()
	if err != nil {
		return nil, fmt.Errorf("dqn clone online: %w", err)
	}
	return &DQN{
		cfg:    d.cfg,
		online: online,
		replay: newReplayFor(d.cfg),
		rng:    rand.New(rand.NewSource(d.cfg.Seed)),
		steps:  d.steps,
		warmup: d.warmup,
	}, nil
}

// CloneFrom warm-starts d from an already-trained source agent: the online
// and target networks' parameters AND optimizer state are copied (not
// reinitialized), and the step counter is inherited so the ε-schedule and
// target-sync cadence resume where the donor left off — a transferred agent
// explores less and fine-tunes instead of relearning from scratch. d keeps
// its own replay buffer and RNG; the learning warmup drops to one mini-batch
// so short fine-tuning budgets actually take gradient steps instead of
// spending their whole run refilling an exploration warmup the donor already
// paid for. Both agents must share a network topology.
func (d *DQN) CloneFrom(src *DQN) error {
	if src == nil {
		return fmt.Errorf("dqn clone from: nil source")
	}
	if err := d.online.CopyStateFrom(src.online); err != nil {
		return fmt.Errorf("dqn clone from online: %w", err)
	}
	if src.target == nil {
		d.target = nil // the donor's target equals its online network; so does ours now
	} else {
		if err := d.ensureTarget(); err != nil {
			return err
		}
		if err := d.target.CopyStateFrom(src.target); err != nil {
			return fmt.Errorf("dqn clone from target: %w", err)
		}
	}
	d.steps = src.steps
	d.warmup = d.cfg.BatchSize
	return nil
}

// Stop reasons reported in TrainResult.StopReason.
const (
	// StopBudget: the full episode budget was spent.
	StopBudget = "budget"
	// StopPlateau: episode returns plateaued and training early-stopped.
	StopPlateau = "plateau"
	// StopInterrupted: a cooperative interrupt (e.g. foreground demand
	// training preempting a speculative run) ended training early.
	StopInterrupted = "interrupted"
)

// TrainResult summarizes a training run.
type TrainResult struct {
	Episodes       int
	MeanReward     float64
	FinalReward    float64
	RewardsPerEp   []float64
	TotalSteps     int
	GreedyEpisodes int
	// StopReason records why training ended: StopBudget, StopPlateau or
	// StopInterrupted. Empty in results from agents that predate the field.
	StopReason string
}

// Train runs the agent on env for the given number of episodes, learning
// online. maxSteps bounds each episode's length (0 means StateSize²+1, a
// safe upper bound for the allocation MDP).
func (d *DQN) Train(env Environment, episodes, maxSteps int) (*TrainResult, error) {
	if err := validateEnv(env); err != nil {
		return nil, err
	}
	if maxSteps <= 0 {
		maxSteps = env.StateSize()*env.StateSize() + 1
	}
	res := &TrainResult{Episodes: episodes, StopReason: StopBudget}
	for ep := 0; ep < episodes; ep++ {
		state := env.Reset()
		var total float64
		for step := 0; step < maxSteps; step++ {
			valid := env.ValidActions()
			if len(valid) == 0 {
				break
			}
			a, err := d.SelectAction(state, valid)
			if err != nil {
				return nil, fmt.Errorf("episode %d: %w", ep, err)
			}
			next, reward, done, err := env.Step(a)
			if err != nil {
				return nil, fmt.Errorf("episode %d step %d: %w", ep, step, err)
			}
			total += reward
			tr := Transition{
				State:     mathx.Clone(state),
				Action:    a,
				Reward:    reward,
				NextState: mathx.Clone(next),
				Done:      done,
			}
			if !done {
				tr.NextValid = append([]int(nil), env.ValidActions()...)
			}
			if err := d.Observe(tr); err != nil {
				return nil, fmt.Errorf("episode %d observe: %w", ep, err)
			}
			state = next
			res.TotalSteps++
			if done {
				break
			}
		}
		res.RewardsPerEp = append(res.RewardsPerEp, total)
	}
	if len(res.RewardsPerEp) > 0 {
		res.MeanReward = mathx.Mean(res.RewardsPerEp)
		res.FinalReward = res.RewardsPerEp[len(res.RewardsPerEp)-1]
	}
	return res, nil
}

// RunGreedy executes one fully greedy episode (prediction phase of Alg. 1)
// and returns the actions taken and the total reward.
func (d *DQN) RunGreedy(env Environment, maxSteps int) ([]int, float64, error) {
	if err := validateEnv(env); err != nil {
		return nil, 0, err
	}
	if maxSteps <= 0 {
		maxSteps = env.StateSize()*env.StateSize() + 1
	}
	state := env.Reset()
	var actions []int
	var total float64
	for step := 0; step < maxSteps; step++ {
		valid := env.ValidActions()
		if len(valid) == 0 {
			break
		}
		a, err := d.GreedyAction(state, valid)
		if err != nil {
			return nil, 0, err
		}
		next, reward, done, err := env.Step(a)
		if err != nil {
			return nil, 0, fmt.Errorf("greedy step %d: %w", step, err)
		}
		actions = append(actions, a)
		total += reward
		state = next
		if done {
			break
		}
	}
	return actions, total, nil
}

// MarshalJSON exports the online network (the trained policy).
func (d *DQN) MarshalJSON() ([]byte, error) { return d.online.MarshalJSON() }

// UnmarshalPolicy restores the online network from MarshalJSON output and
// syncs the target network to it. The replay buffer and step counter are
// not part of the policy and stay fresh.
func (d *DQN) UnmarshalPolicy(data []byte) error {
	if err := d.online.UnmarshalJSON(data); err != nil {
		return fmt.Errorf("dqn unmarshal policy: %w", err)
	}
	d.target = nil
	return nil
}
