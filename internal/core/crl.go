package core

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"repro/internal/mathx"
	"repro/internal/neural"
	"repro/internal/rl"
)

// CRLConfig tunes the Clustered Reinforcement Learning model.
type CRLConfig struct {
	// K is the kNN neighborhood size for environment definition.
	K int
	// Blend averages the K nearest environments instead of taking the single
	// nearest (K=1 and Blend are equivalent).
	Blend bool
	// Episodes is the training episode budget across historical
	// environments.
	Episodes int
	// DQN configures the underlying agent.
	DQN rl.DQNConfig
	// DenseReward is the ablation switch for per-step rewards (the paper
	// uses terminal-only).
	DenseReward bool
	// StopWindow enables convergence-based early stopping: training stops
	// once the mean episode return of the most recent StopWindow episodes
	// improves on the preceding window by less than StopEpsilon (relative).
	// 0 disables early stopping and the full Episodes budget is spent.
	StopWindow int
	// StopEpsilon is the relative-improvement plateau threshold (default
	// 0.01 when StopWindow > 0).
	StopEpsilon float64
	// MinEpisodes floors early stopping: the plateau check never fires
	// before this many episodes (default 2·StopWindow). The budget still
	// caps at Episodes.
	MinEpisodes int
	// Seed drives the training-time environment sampling.
	Seed int64
}

// DefaultCRLConfig returns the configuration used across the experiments.
func DefaultCRLConfig() CRLConfig {
	return CRLConfig{
		K:        3,
		Blend:    true,
		Episodes: 150,
		Seed:     1,
	}
}

// CRL is Algorithm 1: a Deep-Q-Network allocation policy trained over the
// historical environment store, with kNN environment definition at
// prediction time. The problem *structure* (task costs, processors, time
// limit) is fixed; only the importance vector varies between environments —
// the paper's "item value changed randomly over time" Knapsack variant.
//
// Concurrency: once Train has returned, RolloutInto and the environment
// definitions are safe for any number of concurrent callers — they read the
// model and write only caller-owned memory. Predict, PredictWithEnvironment
// and PredictBatchInto are not: the first two forward through the network's
// own activation scratch, the last through the model's own Rollout.
type CRL struct {
	cfg       CRLConfig
	template  *Problem
	store     *EnvironmentStore
	agent     *rl.DQN
	trained   bool
	warmStart *WarmStart
	rollout   Rollout // PredictBatchInto's workspace
}

// WarmStart records transfer provenance for a warm-started model: which
// cluster's policy seeded this one and how far apart their signatures were.
// It rides along in the persisted snapshot so restored policies keep their
// lineage.
type WarmStart struct {
	// Source identifies the donor cluster (the serving layer's store index).
	Source int `json:"source"`
	// Distance is the signature-space distance to the donor.
	Distance float64 `json:"distance"`
}

// NewCRL builds a CRL model over a problem template and historical store.
// The model only reads the template, so many models may share one.
func NewCRL(template *Problem, store *EnvironmentStore, cfg CRLConfig) (*CRL, error) {
	if err := template.Validate(); err != nil {
		return nil, fmt.Errorf("crl template: %w", err)
	}
	if store == nil || store.Len() == 0 {
		return nil, ErrEmptyStore
	}
	if cfg.K < 1 {
		cfg.K = 1
	}
	if cfg.Episodes < 1 {
		cfg.Episodes = 1
	}
	// Probe the state/action sizes with a throwaway env.
	probe, err := NewAllocEnv(template, nil)
	if err != nil {
		return nil, err
	}
	dqnCfg := cfg.DQN
	if dqnCfg.Seed == 0 {
		dqnCfg.Seed = cfg.Seed
	}
	agent, err := rl.NewDQN(probe.StateSize(), probe.ActionSize(), dqnCfg)
	if err != nil {
		return nil, fmt.Errorf("crl agent: %w", err)
	}
	return &CRL{cfg: cfg, template: template, store: store, agent: agent}, nil
}

// problemFor instantiates the template with an environment's importance.
func (c *CRL) problemFor(env *Environment) (*Problem, error) {
	if len(env.Importance) != len(c.template.Tasks) {
		return nil, fmt.Errorf("core: environment has %d importances for %d tasks",
			len(env.Importance), len(c.template.Tasks))
	}
	p := c.template.Clone()
	for i := range p.Tasks {
		p.Tasks[i].Importance = mathx.Clamp(env.Importance[i], 0, 1)
	}
	return p, nil
}

// Train runs the training phase of Alg. 1: episodes over environments
// sampled from the historical store, updating the shared DQN. With
// StopWindow set, training early-stops once episode returns plateau
// (relative improvement between consecutive StopWindow-episode windows below
// StopEpsilon), never before the MinEpisodes floor; the outcome is reported
// in TrainResult.StopReason.
//
// A finished training releases what only learning reads (the replay ring,
// the mini-batch scratch, the gradient buffers — rl.DQN.ReleaseTraining): a
// trained CRL is held for its answers, as a warm-start donor and for its
// snapshot, none of which read them. Training it again starts from an empty
// ring.
func (c *CRL) Train() (*rl.TrainResult, error) {
	rng := mathx.NewRand(c.cfg.Seed)
	envs := c.store.All()
	minEp := c.cfg.MinEpisodes
	if minEp <= 0 {
		minEp = 2 * c.cfg.StopWindow
	}
	stopEps := c.cfg.StopEpsilon
	if stopEps <= 0 {
		stopEps = 0.01
	}
	// Each store environment keeps one AllocEnv for the whole run: the
	// problem structure is fixed and Train resets the env per episode, so
	// rebuilding the problem clone and MDP every episode is pure overhead.
	cache := make([]*AllocEnv, len(envs))
	agg := &rl.TrainResult{StopReason: rl.StopBudget, RewardsPerEp: make([]float64, 0, c.cfg.Episodes)}
	for ep := 0; ep < c.cfg.Episodes; ep++ {
		ei := rng.Intn(len(envs))
		alloc := cache[ei]
		if alloc == nil {
			env := envs[ei]
			prob, err := c.problemFor(env)
			if err != nil {
				return nil, err
			}
			alloc, err = NewAllocEnv(prob, env.Signature)
			if err != nil {
				return nil, err
			}
			alloc.DenseReward = c.cfg.DenseReward
			cache[ei] = alloc
		}
		steps, total, err := c.agent.TrainEpisode(alloc, alloc.N()+alloc.M()+1)
		if err != nil {
			return nil, fmt.Errorf("crl episode %d: %w", ep, err)
		}
		agg.Episodes++
		agg.TotalSteps += steps
		agg.RewardsPerEp = append(agg.RewardsPerEp, total)
		if c.cfg.StopWindow > 0 && agg.Episodes >= minEp &&
			plateaued(agg.RewardsPerEp, c.cfg.StopWindow, stopEps) {
			agg.StopReason = rl.StopPlateau
			break
		}
	}
	if n := len(agg.RewardsPerEp); n > 0 {
		agg.MeanReward = mathx.Mean(agg.RewardsPerEp)
		agg.FinalReward = agg.RewardsPerEp[n-1]
	}
	c.agent.ReleaseTraining()
	c.trained = true
	return agg, nil
}

// plateaued reports whether the most recent `window` episode returns improve
// on the preceding `window` returns by less than eps, relative to the earlier
// window's magnitude — the convergence criterion behind early stopping.
func plateaued(rewards []float64, window int, eps float64) bool {
	if len(rewards) < 2*window {
		return false
	}
	recent := mathx.Mean(rewards[len(rewards)-window:])
	prev := mathx.Mean(rewards[len(rewards)-2*window : len(rewards)-window])
	denom := math.Abs(prev)
	if denom < 1e-12 {
		denom = 1e-12
	}
	return (recent-prev)/denom < eps
}

// WarmStartFrom seeds c's agent from an already-trained donor model instead
// of training from random initialization: online and target networks AND
// optimizer state are copied (rl.DQN.CloneFrom), so the subsequent Train
// call fine-tunes the transferred policy with a decayed ε-schedule. Both
// models must share the problem shape (state/action sizes). info records the
// transfer provenance, persisted in snapshots.
func (c *CRL) WarmStartFrom(src *CRL, info WarmStart) error {
	if src == nil {
		return fmt.Errorf("crl warm start: nil source")
	}
	if !src.trained {
		return ErrNotTrained
	}
	if err := c.agent.CloneFrom(src.agent); err != nil {
		return fmt.Errorf("crl warm start: %w", err)
	}
	ws := info
	c.warmStart = &ws
	return nil
}

// DefineEnvironment answers the environment-definition query for sensing
// data Z per the configured kNN policy.
func (c *CRL) DefineEnvironment(z []float64) (*Environment, error) {
	return c.cfg.DefineEnvironment(c.store, z)
}

// DefineEnvironment answers the environment-definition query over store per
// cfg's kNN policy (K, Blend) — what a CRL built with cfg over store
// defines, without building or training the model.
func (cfg CRLConfig) DefineEnvironment(store *EnvironmentStore, z []float64) (*Environment, error) {
	if cfg.Blend && cfg.K > 1 {
		return store.DefineBlended(z, cfg.K)
	}
	return store.Define(z)
}

// DefineEnvironmentInto is DefineEnvironment writing into a caller-owned
// environment with reusable kNN scratch — the zero-allocation variant the
// serving warm path uses. Environment definition only reads the (concurrency
// safe) store, so any goroutine may call this on a shared CRL.
func (c *CRL) DefineEnvironmentInto(z []float64, dst *Environment, scratch *KNNScratch) error {
	return c.cfg.DefineEnvironmentInto(c.store, z, dst, scratch)
}

// DefineEnvironmentInto answers the environment-definition query over store
// per cfg's kNN policy (K, Blend) — what a CRL built with cfg over store
// defines, without the model: the definition reads no network.
func (cfg CRLConfig) DefineEnvironmentInto(store *EnvironmentStore, z []float64, dst *Environment, scratch *KNNScratch) error {
	if cfg.Blend && cfg.K > 1 {
		return store.DefineBlendedInto(z, cfg.K, dst, scratch)
	}
	// k=1 inside DefineBlendedInto copies the single nearest entry verbatim —
	// bitwise-identical to Define — without Define's result allocation.
	return store.DefineBlendedInto(z, 1, dst, scratch)
}

// Predict is the prediction phase of Alg. 1: define the environment for Z,
// then roll the greedy policy to an allocation. The MDP construction makes
// every greedy rollout feasible by design.
func (c *CRL) Predict(z []float64) (Allocation, *Environment, error) {
	if !c.trained {
		return nil, nil, ErrNotTrained
	}
	env, err := c.DefineEnvironment(z)
	if err != nil {
		return nil, nil, err
	}
	alloc, err := c.PredictWithEnvironment(env)
	return alloc, env, err
}

// PredictWithEnvironment rolls the greedy policy against an explicit
// environment (used by DCTA, which may refine the defined environment).
func (c *CRL) PredictWithEnvironment(env *Environment) (Allocation, error) {
	if !c.trained {
		return nil, ErrNotTrained
	}
	prob, err := c.problemFor(env)
	if err != nil {
		return nil, err
	}
	ae, err := NewAllocEnv(prob, env.Signature)
	if err != nil {
		return nil, err
	}
	if _, _, err := c.agent.RunGreedy(ae, ae.N()+ae.M()+1); err != nil {
		return nil, fmt.Errorf("crl greedy rollout: %w", err)
	}
	return ae.Allocation(), nil
}

// Rollout is the caller-owned workspace of a greedy rollout (RolloutInto):
// the MDP lane the environment is rolled through, the first layer's running
// pre-activation sums, the cached Q row and the network tail's activations.
// The zero value is ready; the first rollout sizes it. One Rollout serves any
// number of models built on one template, one rollout at a time: meeting a
// model built on another template (compared by pointer, so exactly) rebuilds
// the lane. Concurrent rollouts need one Rollout each.
type Rollout struct {
	template *Problem // the template the lane was built from
	lane     *AllocEnv
	pre      []float64 // layer-0 pre-activation sums for the lane's current state
	q        []float64 // Q row from the last tail evaluation; open entries are current
	open     []int     // unassigned tasks + skip: the outputs that evaluation computed
	valid    []int
	tail     neural.TailScratch
	stale    bool // q predates the lane's state: the next step re-evaluates the tail
	tails    int  // tail evaluations made by the last rollout
}

// RolloutInto rolls the greedy policy for env through r and returns the
// allocation appended into out's backing array. It reads the trained model
// and writes only r and out, so any number of goroutines may call it on one
// CRL, each with its own Rollout.
//
// The rollout is incremental. The state is [S ‖ e] (AllocEnv.StateInto):
// inside an episode the environment half e never changes, the selection half
// S gains exactly one cell per assignment, and a skip changes nothing the
// network sees. So the first layer's contribution of e is computed once
// (ascending k, exact zeros of e skipped), each assignment adds one weight
// column to those sums, and the remaining layers are re-evaluated only after
// an assignment — a skip reuses the cached Q row, recomputing only the
// valid-action set. The last layer is evaluated only for the tasks still
// unassigned plus skip, a superset of every valid set until the next
// assignment.
//
// Contract. (a) The answer depends on env's inputs alone: every buffer of r
// is fully rewritten before it is read, so what r served before never
// reaches a later answer (TestPredictBatchMatchesSequential,
// TestRolloutScratchDoesNotBleed). (b) Layer 0 is accumulated as
// (environment half in ascending k, then selection cells in assignment
// order), not as the full forward's single ascending-k sweep, so a Q value
// may differ from neural.ForwardBatch's in the last ulp; every later layer
// sums in ForwardBatch's order and the argmax breaks ties toward the lowest
// action index as before. PredictWithEnvironment, which runs the full forward
// at every step, is the reference the tests hold the allocations equal to.
func (c *CRL) RolloutInto(r *Rollout, env *Environment, out Allocation) (Allocation, error) {
	if !c.trained {
		return out, ErrNotTrained
	}
	if len(env.Importance) != len(c.template.Tasks) {
		return out, fmt.Errorf("core: environment has %d importances for %d tasks",
			len(env.Importance), len(c.template.Tasks))
	}
	net := c.agent.Online()
	if r.template != c.template || len(r.pre) != net.FirstLayerSize() {
		lane, err := NewAllocEnv(c.template.Clone(), nil)
		if err != nil {
			return out, fmt.Errorf("crl rollout lane: %w", err)
		}
		*r = Rollout{
			template: c.template,
			lane:     lane,
			pre:      make([]float64, net.FirstLayerSize()),
			q:        make([]float64, lane.ActionSize()),
			open:     make([]int, 0, lane.ActionSize()),
			valid:    make([]int, 0, lane.ActionSize()),
		}
	}
	if err := r.roll(net, env.Importance); err != nil {
		return out, fmt.Errorf("crl rollout: %w", err)
	}
	return r.lane.CopyAllocation(out), nil
}

// PredictBatchInto rolls the greedy policy for a batch of environments
// through the model's own Rollout: out[i] receives envs[i]'s allocation,
// appended into its existing backing array. It is RolloutInto once per
// environment, so a batch answers exactly what separate calls answer. Not
// goroutine-safe, because the Rollout is the model's; concurrent callers use
// RolloutInto with one Rollout each.
func (c *CRL) PredictBatchInto(envs []*Environment, out []Allocation) error {
	if len(out) < len(envs) {
		return fmt.Errorf("core: %d outputs for %d environments", len(out), len(envs))
	}
	for i, env := range envs {
		var err error
		if out[i], err = c.RolloutInto(&c.rollout, env, out[i]); err != nil {
			return fmt.Errorf("core: environment %d: %w", i, err)
		}
	}
	return nil
}

// roll runs one greedy episode for the given importance vector through the
// lane, leaving the allocation in it.
func (s *Rollout) roll(net *neural.Network, importance []float64) error {
	s.tails = 0
	if err := s.begin(net, importance); err != nil {
		return err
	}
	maxSteps := s.lane.N() + s.lane.M() + 1
	for step := 0; step < maxSteps && !s.lane.Done(); step++ {
		if err := s.step(net); err != nil {
			return err
		}
	}
	return nil
}

// begin rebinds the lane to an importance vector and hoists the environment
// half of the state out of the episode: pre = W₀[:, NM:2NM]·e.
func (s *Rollout) begin(net *neural.Network, importance []float64) error {
	if err := s.lane.Reinit(importance); err != nil {
		return err
	}
	s.stale = true
	return net.FirstLayerRange(s.pre, len(s.lane.state), s.lane.envMatrix, &s.tail)
}

// step takes the greedy action in the lane's current state.
func (s *Rollout) step(net *neural.Network) error {
	lane := s.lane
	if s.stale {
		s.open = lane.OpenActionsInto(s.open)
		if err := net.ForwardTail(s.q, s.pre, s.open, &s.tail); err != nil {
			return err
		}
		s.tails++
		s.stale = false
	}
	s.valid = lane.ValidActionsInto(s.valid)
	a, err := rl.ArgmaxOver(s.q, s.valid)
	if err != nil {
		return err
	}
	if _, err := lane.Apply(a); err != nil {
		return err
	}
	if a != lane.SkipAction() {
		// Selection cell (task a, its processor) stepped 0 → 1. A skip only
		// advances the current processor, which the state does not encode.
		s.stale = true
		return net.AddFirstLayerColumn(s.pre, a*lane.M()+lane.assigned[a])
	}
	return nil
}

// Template returns the problem structure the model allocates for.
func (c *CRL) Template() *Problem { return c.template }

// Store returns the historical environment store predictions cluster over.
func (c *CRL) Store() *EnvironmentStore { return c.store }

// Trained reports whether Train has completed.
func (c *CRL) Trained() bool { return c.trained }

// crlSnapshot is the persisted form of a trained CRL model. The environment
// store is not serialized — it is the deployment's historical data and is
// reattached on load.
type crlSnapshot struct {
	Config   CRLConfig       `json:"config"`
	Template *Problem        `json:"template"`
	Policy   json.RawMessage `json:"policy"`
	Trained  bool            `json:"trained"`
	// WarmStart is the transfer provenance of warm-started policies; absent
	// in snapshots written before it existed and for from-scratch policies,
	// so old checkpoints load unchanged.
	WarmStart *WarmStart `json:"warm_start,omitempty"`
}

// MarshalJSON persists the trained policy, configuration and problem
// template ("the training phase merely needs to be conducted once in
// advance" — footnote 1). Pair with LoadCRL.
func (c *CRL) MarshalJSON() ([]byte, error) {
	policy, err := c.agent.MarshalJSON()
	if err != nil {
		return nil, fmt.Errorf("crl marshal policy: %w", err)
	}
	return json.Marshal(crlSnapshot{
		Config:    c.cfg,
		Template:  c.template,
		Policy:    policy,
		Trained:   c.trained,
		WarmStart: c.warmStart,
	})
}

// LoadCRL restores a model persisted with MarshalJSON, reattaching the
// given historical environment store for prediction-time kNN definition.
func LoadCRL(data []byte, store *EnvironmentStore) (*CRL, error) {
	return LoadCRLOn(nil, data, store)
}

// LoadCRLOn is LoadCRL for a deployment whose models share one template: the
// snapshot's template must equal template, and the restored model reads
// template itself, so a Rollout moves between it and the deployment's other
// models without rebuilding. A nil template keeps the snapshot's own.
func LoadCRLOn(template *Problem, data []byte, store *EnvironmentStore) (*CRL, error) {
	if store == nil || store.Len() == 0 {
		return nil, ErrEmptyStore
	}
	var snap crlSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("crl unmarshal: %w", err)
	}
	if snap.Template == nil {
		return nil, fmt.Errorf("crl unmarshal: missing template")
	}
	if template != nil {
		if !reflect.DeepEqual(snap.Template, template) {
			return nil, fmt.Errorf("crl restore: snapshot template differs from the deployment's")
		}
		snap.Template = template
	}
	c, err := NewCRL(snap.Template, store, snap.Config)
	if err != nil {
		return nil, fmt.Errorf("crl restore: %w", err)
	}
	if err := c.agent.UnmarshalPolicy(snap.Policy); err != nil {
		return nil, fmt.Errorf("crl restore policy: %w", err)
	}
	c.trained = snap.Trained
	c.warmStart = snap.WarmStart
	return c, nil
}
