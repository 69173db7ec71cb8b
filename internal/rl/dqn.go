package rl

import (
	"fmt"
	"math/rand"

	"repro/internal/mathx"
	"repro/internal/neural"
)

// lambda is the discount factor λ of the paper's five-tuple.
const lambda = 0.95

// DQNConfig parameterizes a DQN agent.
type DQNConfig struct {
	// Hidden lists hidden-layer widths (default [64, 64]).
	Hidden []int
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
	// Seed drives all agent randomness.
	Seed int64
}

func (c DQNConfig) withDefaults() DQNConfig {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{64, 64}
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
	return c
}

// DQN is a Deep Q-Network agent: an online Q-network trained against a
// periodically synced target network from uniformly sampled replay
// transitions — the optimization of the paper's Alg. 1 lines 3-6. A learning
// step costs what its inputs require: the frozen target network is evaluated
// once per replayed transition and target version (the replay ring memoises
// its Q rows), the online network takes one accumulated TrainBatch step that
// touches only the input columns alive in the mini-batch, and an episode
// step allocates nothing.
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
	// targetVer counts the changes of the target network's weights. Whatever
	// changes them — the TargetSyncEvery copy, CloneFrom, UnmarshalPolicy —
	// bumps it, which invalidates every Q row the replay ring has memoised.
	targetVer int
	replay    *ReplayBuffer
	rng       *rand.Rand
	steps     int
	// warmup is the replay fill level learning waits for: cfg.WarmupSteps
	// normally, lowered to one mini-batch by CloneFrom (a warm-started agent
	// starts competent, so it fine-tunes as soon as a batch of fresh
	// experience exists instead of idling through a full exploration warmup).
	warmup int

	// miniBatch is learn's scratch, sized once from cfg.BatchSize so that
	// steady-state Observe calls allocate nothing.
	miniBatch

	// Episode-loop scratch (TrainEpisode): the current and the next state with
	// their valid actions, and the ε-greedy forward's sums, Q row and tail.
	state, next      []float64
	valid, nextValid []int
	sums, q          []float64
	tail             neural.TailScratch
}

// miniBatch is the reusable scratch of one learning step: the sampled
// transitions (views into the ring) with their slots, the state, target and
// mask matrices handed to TrainBatch (the mask gates the taken action), each
// sample's memoised target Q row and bootstrap value, and fill — the memo rows
// the target network has yet to write. nexts, every sampled next state, exists
// only under Double DQN, where the online network picks the bootstrap action
// anew on every step.
type miniBatch struct {
	batchTr []Transition
	slots   []int
	states  *mathx.Matrix
	targets *mathx.Matrix
	mask    *mathx.Matrix
	rows    [][]float64
	qNext   []float64
	head    mathx.Matrix // the first rows of states, as the target network's input
	fill    [][]float64
	nexts   *mathx.Matrix
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
		replay: newReplayFor(cfg, actionSize),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		warmup: cfg.WarmupSteps,
	}, nil
}

// newReplayFor builds the replay buffer for an agent with the given action
// count.
func newReplayFor(cfg DQNConfig, actions int) *ReplayBuffer {
	r := NewReplayBuffer(cfg.ReplayCapacity)
	r.actions = actions
	return r
}

// QValues returns the online network's Q estimates for state s.
func (d *DQN) QValues(s []float64) ([]float64, error) {
	q, err := d.online.Forward(s)
	if err != nil {
		return nil, fmt.Errorf("dqn q-values: %w", err)
	}
	return q, nil
}

// SelectAction picks ε-greedily among valid actions. Its greedy branch is the
// training loop's forward: the compacted state through neural's incremental
// surface into the agent's own scratch, only the valid outputs evaluated.
// Every layer sums in ascending input order and adds the bias last, as
// ForwardBatch does; QValues adds it first, so the two may differ in a Q
// value's last ulp (GreedyAction is the full-forward reference).
func (d *DQN) SelectAction(s []float64, valid []int) (int, error) {
	if len(valid) == 0 {
		return 0, ErrNoActions
	}
	eps := d.cfg.Epsilon.At(d.steps)
	if d.rng.Float64() < eps {
		return valid[d.rng.Intn(len(valid))], nil
	}
	if len(s) != d.online.InputSize() {
		return 0, fmt.Errorf("dqn select action: state size %d, want %d: %w",
			len(s), d.online.InputSize(), neural.ErrBadInput)
	}
	if d.q == nil {
		d.sums = make([]float64, d.online.FirstLayerSize())
		d.q = make([]float64, d.online.OutputSize())
	}
	err := d.online.FirstLayerRange(d.sums, 0, s, &d.tail)
	if err == nil {
		err = d.online.ForwardTail(d.q, d.sums, valid, &d.tail)
	}
	if err != nil {
		return 0, fmt.Errorf("dqn select action: %w", err)
	}
	return ArgmaxOver(d.q, valid)
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
	target.ReserveBatch(d.cfg.BatchSize)
	d.target = target
	return nil
}

// ensureBatch sizes the reusable mini-batch scratch.
func (d *DQN) ensureBatch() {
	if d.batchTr != nil {
		return
	}
	b, in, out := d.cfg.BatchSize, d.online.InputSize(), d.online.OutputSize()
	d.batchTr = make([]Transition, b)
	d.slots = make([]int, b)
	d.states = mathx.NewMatrix(b, in)
	d.targets = mathx.NewMatrix(b, out)
	d.mask = mathx.NewMatrix(b, out)
	d.rows = make([][]float64, b)
	d.qNext = make([]float64, b)
	d.fill = make([][]float64, b)
	if d.cfg.DoubleDQN {
		d.nexts = mathx.NewMatrix(b, in)
	}
}

// Observe records a copy of the transition and performs one learning step.
func (d *DQN) Observe(t Transition) error {
	size := d.online.InputSize()
	if len(t.State) != size {
		return fmt.Errorf("dqn observe: state size %d, want %d: %w", len(t.State), size, neural.ErrBadInput)
	}
	if !t.Done && t.NextState != nil && len(t.NextState) != size {
		return fmt.Errorf("dqn observe: next state size %d, want %d: %w", len(t.NextState), size, neural.ErrBadInput)
	}
	d.replay.add(t, false)
	return d.learn()
}

// putNext writes the state a transition bootstraps from into a batch row.
// Terminal rows bootstrap to 0 and get a zero row, as does a missing next
// state, so the batch stays rectangular.
func putNext(row []float64, tr *Transition) {
	if tr.Done || tr.NextState == nil {
		clear(row)
	} else {
		copy(row, tr.NextState)
	}
}

// learn counts the transition just added and, past the warmup, takes one
// learning step. It implements the loss of Alg. 1 line 4,
// (r + max_a' Q_target(s',a') − Q(s,a))², batched: the sampled next states
// the target network has not seen since it last changed go through it in one
// ForwardBatch, and the online network takes a single optimizer step on the
// accumulated mini-batch gradient instead of BatchSize sequential updates.
func (d *DQN) learn() error {
	d.steps++
	if d.replay.Len() < d.warmup {
		return nil
	}
	d.ensureBatch()
	if err := d.ensureTarget(); err != nil {
		return err
	}
	d.replay.SampleInto(d.rng, d.batchTr, d.slots)
	// The target network sees only the sampled next states whose memo row it
	// has not written since it last changed. They are gathered into the head
	// of the states matrix, which the sampled states overwrite afterwards.
	in, stale := d.online.InputSize(), 0
	for i := range d.batchTr {
		tr := &d.batchTr[i]
		if d.nexts != nil {
			putNext(d.nexts.Row(i), tr)
		}
		if tr.Done {
			continue
		}
		row, fresh := d.replay.memoRow(d.slots[i], d.targetVer)
		d.rows[i] = row
		if !fresh {
			putNext(d.states.Row(stale), tr)
			d.fill[stale] = row
			stale++
		}
	}
	if stale > 0 {
		d.head = mathx.Matrix{Rows: stale, Cols: in, Data: d.states.Data[:stale*in]}
		tq, err := d.target.ForwardBatch(&d.head)
		if err != nil {
			return fmt.Errorf("dqn target forward: %w", err)
		}
		for k, row := range d.fill[:stale] {
			copy(row, tq.Row(k))
		}
	}
	var oq *mathx.Matrix
	if d.cfg.DoubleDQN {
		// Select the bootstrap action with the online network, evaluate it
		// with the target network (van Hasselt). The online network moves on
		// every step, so its choice is never memoised.
		var err error
		if oq, err = d.online.ForwardBatch(d.nexts); err != nil {
			return fmt.Errorf("dqn online forward: %w", err)
		}
	}
	// Bootstrap values must be gathered before any further online forward:
	// a later ForwardBatch would overwrite oq's scratch rows.
	for i := range d.batchTr {
		tr := &d.batchTr[i]
		copy(d.states.Row(i), tr.State)
		d.qNext[i] = 0
		if tr.Done {
			continue
		}
		if oq != nil {
			if a, err := ArgmaxOver(oq.Row(i), tr.NextValid); err == nil {
				d.qNext[i] = d.rows[i][a]
			}
		} else {
			d.qNext[i] = maxOver(d.rows[i], tr.NextValid)
		}
	}
	for i := range d.batchTr {
		tr := &d.batchTr[i]
		// Train only the taken action's output.
		trow, mrow := d.targets.Row(i), d.mask.Row(i)
		clear(trow)
		clear(mrow)
		trow[tr.Action] = tr.Reward + lambda*d.qNext[i]
		mrow[tr.Action] = 1
	}
	if _, err := d.online.TrainBatch(d.states, d.targets, d.mask); err != nil {
		return fmt.Errorf("dqn train: %w", err)
	}
	if d.steps%d.cfg.TargetSyncEvery == 0 {
		if err := d.target.CopyWeightsFrom(d.online); err != nil {
			return fmt.Errorf("dqn target sync: %w", err)
		}
		d.targetVer++
	}
	return nil
}

// Steps returns the number of observed transitions.
func (d *DQN) Steps() int { return d.steps }

// ReplayLen returns the number of transitions the replay ring holds.
func (d *DQN) ReplayLen() int { return d.replay.Len() }

// ReleaseTraining drops the state only a learning step reads: the replay
// ring with its memo rows, the mini-batch scratch and the online network's
// gradient buffers. Both networks, the step counter and the RNG stay, so
// inference, Clone, CloneFrom donors and MarshalJSON read what they read
// before. All of it is allocated on demand: a later Observe starts from an
// empty ring and waits out the warmup again.
func (d *DQN) ReleaseTraining() {
	d.replay = newReplayFor(d.cfg, d.online.OutputSize())
	d.miniBatch = miniBatch{}
	d.online.ReleaseTraining()
}

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
		replay: newReplayFor(d.cfg, d.online.OutputSize()),
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
	d.targetVer++
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
)

// TrainResult summarizes a training run.
type TrainResult struct {
	Episodes     int
	MeanReward   float64
	FinalReward  float64
	RewardsPerEp []float64
	TotalSteps   int
	// StopReason records why training ended: StopBudget or StopPlateau.
	// Empty in results from agents that predate the field.
	StopReason string
}

// Train runs the agent on env for the given number of episodes, learning
// online. maxSteps bounds each episode's length (0 means StateSize²+1, a
// safe upper bound for the allocation MDP).
func (d *DQN) Train(env Environment, episodes, maxSteps int) (*TrainResult, error) {
	if err := validateEnv(env.StateSize(), env.ActionSize()); err != nil {
		return nil, err
	}
	inPlace, ok := env.(InPlaceEnvironment)
	if !ok {
		inPlace = &copyingEnv{Environment: env}
	}
	res := &TrainResult{Episodes: episodes, StopReason: StopBudget,
		RewardsPerEp: make([]float64, 0, max(episodes, 0))}
	for ep := 0; ep < episodes; ep++ {
		steps, total, err := d.TrainEpisode(inPlace, maxSteps)
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", ep, err)
		}
		res.TotalSteps += steps
		res.RewardsPerEp = append(res.RewardsPerEp, total)
	}
	if len(res.RewardsPerEp) > 0 {
		res.MeanReward = mathx.Mean(res.RewardsPerEp)
		res.FinalReward = res.RewardsPerEp[len(res.RewardsPerEp)-1]
	}
	return res, nil
}

// TrainEpisode runs one ε-greedy episode on env, learning after every step,
// and returns the steps taken and the episode's return. maxSteps is as in
// Train. A step allocates nothing once the replay ring has wrapped: the ring
// is handed one copy of each state the episode visits — the next state of
// step t is the state of step t+1 — and one of its valid actions.
func (d *DQN) TrainEpisode(env InPlaceEnvironment, maxSteps int) (steps int, total float64, err error) {
	if err := validateEnv(env.StateSize(), env.ActionSize()); err != nil {
		return 0, 0, err
	}
	size := d.online.InputSize()
	if env.StateSize() != size {
		return 0, 0, fmt.Errorf("dqn train: environment state size %d, want %d: %w",
			env.StateSize(), size, neural.ErrBadInput)
	}
	if maxSteps <= 0 {
		maxSteps = size*size + 1
	}
	if d.state == nil {
		d.state, d.next = make([]float64, size), make([]float64, size)
	}
	env.Restart()
	env.StateInto(d.state)
	d.valid = env.ValidActionsInto(d.valid)
	for ; steps < maxSteps && len(d.valid) > 0; steps++ {
		t := Transition{State: d.state}
		if t.Action, err = d.SelectAction(d.state, d.valid); err != nil {
			return steps, total, err
		}
		if t.Reward, t.Done, err = env.StepInPlace(t.Action); err != nil {
			return steps, total, fmt.Errorf("step %d: %w", steps, err)
		}
		total += t.Reward
		if !t.Done {
			env.StateInto(d.next)
			d.nextValid = env.ValidActionsInto(d.nextValid)
			t.NextState, t.NextValid = d.next, d.nextValid
		}
		d.replay.add(t, steps > 0)
		if err := d.learn(); err != nil {
			return steps, total, fmt.Errorf("step %d observe: %w", steps, err)
		}
		if t.Done {
			return steps + 1, total, nil
		}
		d.state, d.next = d.next, d.state
		d.valid, d.nextValid = d.nextValid, d.valid
	}
	return steps, total, nil
}

// RunGreedy executes one fully greedy episode (prediction phase of Alg. 1)
// and returns the actions taken and the total reward.
func (d *DQN) RunGreedy(env Environment, maxSteps int) ([]int, float64, error) {
	if err := validateEnv(env.StateSize(), env.ActionSize()); err != nil {
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
	d.targetVer++
	return nil
}
