// Package experiments contains one harness per table/figure of the paper's
// evaluation (§II observations and §V experiments), built on the
// green-building substrate, the MTL engine, the TATIM core, and the edge
// simulator. Each harness returns plain series/rows: cmd/dcta-bench prints
// them as the paper's figures, and the top-level benchmarks time them.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/building"
	"repro/internal/core"
	"repro/internal/edgesim"
	"repro/internal/features"
	"repro/internal/mathx"
	"repro/internal/mtl"
	"repro/internal/rl"
)

// ErrBadScenario is returned for invalid scenario configurations.
var ErrBadScenario = errors.New("experiments: invalid scenario")

// ScenarioConfig sizes the end-to-end experimental setup.
type ScenarioConfig struct {
	// Seed drives every random component.
	Seed int64
	// Years and StepHours size the building trace.
	Years     int
	StepHours int
	// Tasks is the MTL task count (paper: 50).
	Tasks int
	// HistoryContexts is the number of historical decision epochs used to
	// build the environment store and train the local process.
	HistoryContexts int
	// EvalContexts is the number of held-out epochs evaluated.
	EvalContexts int
	// Workers is the default worker count (paper: 9 Pis).
	Workers int
	// AvgInputMbits is the mean per-task input size in megabits.
	AvgInputMbits float64
	// BandwidthBps is the WiFi link bandwidth.
	BandwidthBps float64
	// TimeLimit is the TATIM T in seconds.
	TimeLimit float64
	// CoverageTarget is the importance coverage that defines "decision
	// ready" in the PT metric.
	CoverageTarget float64
	// CRLEpisodes bounds CRL training.
	CRLEpisodes int
	// SignatureNoise is the relative sensing noise applied independently to
	// the stored and queried signatures Z. It models the imperfect
	// environment observations that make the clustered environment mismatch
	// reality (§III-C) — the failure mode the DCTA local process corrects.
	SignatureNoise float64
}

// DefaultScenarioConfig mirrors the paper's setup at a laptop-friendly
// scale: 50 tasks, 9 workers + laptop, four simulated years thinned to
// 3-hour sampling.
func DefaultScenarioConfig(seed int64) ScenarioConfig {
	return ScenarioConfig{
		Seed:            seed,
		Years:           2,
		StepHours:       3,
		Tasks:           50,
		HistoryContexts: 60,
		EvalContexts:    12,
		Workers:         9,
		AvgInputMbits:   400.0 / 50, // 400 Mb application input over 50 tasks
		BandwidthBps:    edgesim.DefaultBandwidthBps,
		TimeLimit:       60,
		CoverageTarget:  0.8,
		CRLEpisodes:     60,
		SignatureNoise:  0.30,
	}
}

// ScaledScenarioConfig maps a -scale preset to a scenario configuration:
// "fast" is a small CI-sized world, "default" is DefaultScenarioConfig and
// "full" a four-year hourly trace. Every command that builds a world from
// -scale uses it, so a router and its shards built from one seed and
// scale agree on the store.
func ScaledScenarioConfig(seed int64, scale string) (ScenarioConfig, error) {
	cfg := DefaultScenarioConfig(seed)
	switch scale {
	case "fast":
		cfg.Years = 1
		cfg.Tasks = 24
		cfg.HistoryContexts = 20
		cfg.EvalContexts = 4
		cfg.Workers = 5
		cfg.CRLEpisodes = 10
	case "default":
	case "full":
		cfg.Years = 4
		cfg.StepHours = 1
		cfg.HistoryContexts = 120
		cfg.EvalContexts = 24
		cfg.CRLEpisodes = 150
	default:
		return cfg, fmt.Errorf("unknown scale %q (fast, default, full)", scale)
	}
	return cfg, nil
}

// Scenario is the experimental world shared by the figure harnesses: the
// trace, the MTL engine and the epochs' true importance, the environment
// store, the local process and the testbed, all built by NewScenario. The
// offline CRL (the general process of Algorithm 1) is not built with it: the
// CRL method trains it on first read, which only the in-sim allocators do.
type Scenario struct {
	Config    ScenarioConfig
	Trace     *building.Trace
	Engine    *mtl.Engine
	Sequencer *building.Sequencer
	Extractor *features.Extractor
	Store     *core.EnvironmentStore
	// History and Eval are the sampled decision epochs with their true
	// importance vectors.
	History []Epoch
	Eval    []Epoch
	// InputBits is the per-task input size in bits.
	InputBits []float64
	// Local is the trained local process.
	Local *alloc.LocalModel
	// Cluster is the default testbed.
	Cluster *edgesim.Cluster
	// Template is the TATIM problem structure for the default cluster.
	Template *core.Problem

	// crl holds the offline CRL once the CRL method has trained it. It is a
	// pointer so that WithWorkers' shallow copy can give its clone its own.
	crl *lazyCRL
}

// lazyCRL is a CRL trained on first read, once.
type lazyCRL struct {
	once sync.Once
	crl  *core.CRL
	err  error
}

// Epoch is one decision context with ground truth attached.
type Epoch struct {
	Plant      mtl.PlantContext
	Importance []float64
	Signature  []float64
	FeatureCtx features.Context
}

// NewScenario builds the world: trace → engine → epochs (importance) →
// store → local model. It is deterministic in cfg.Seed. It does not train
// the offline CRL; the CRL method does, on first read.
func NewScenario(cfg ScenarioConfig) (*Scenario, error) {
	if cfg.Years < 1 || cfg.Tasks < 1 || cfg.Workers < 1 {
		return nil, fmt.Errorf("years/tasks/workers: %w", ErrBadScenario)
	}
	if cfg.HistoryContexts < 2 || cfg.EvalContexts < 1 {
		return nil, fmt.Errorf("context counts: %w", ErrBadScenario)
	}
	if cfg.StepHours < 1 {
		cfg.StepHours = 3
	}
	if cfg.AvgInputMbits <= 0 {
		cfg.AvgInputMbits = 8
	}
	if cfg.BandwidthBps <= 0 {
		cfg.BandwidthBps = edgesim.DefaultBandwidthBps
	}
	if cfg.TimeLimit <= 0 {
		cfg.TimeLimit = 60
	}
	if cfg.CoverageTarget <= 0 || cfg.CoverageTarget > 1 {
		cfg.CoverageTarget = 0.8
	}
	if cfg.CRLEpisodes < 1 {
		cfg.CRLEpisodes = 60
	}
	s := &Scenario{Config: cfg, Sequencer: building.NewSequencer(), crl: &lazyCRL{}}
	var err error
	s.Trace, err = building.Generate(building.Config{
		Seed: cfg.Seed, StartYear: 2015, Years: cfg.Years, StepHours: cfg.StepHours,
	})
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	engCfg := mtl.DefaultEngineConfig()
	engCfg.MaxTasks = cfg.Tasks
	engCfg.Seed = cfg.Seed
	s.Engine, err = mtl.NewEngine(s.Trace, engCfg)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if err := s.Engine.Fit(); err != nil {
		return nil, fmt.Errorf("engine fit: %w", err)
	}
	s.Extractor, err = features.NewExtractor(s.Trace, s.Engine)
	if err != nil {
		return nil, fmt.Errorf("extractor: %w", err)
	}
	if err := s.buildEpochs(); err != nil {
		return nil, err
	}
	s.buildInputBits()
	if err := s.buildCluster(); err != nil {
		return nil, err
	}
	if err := s.buildStore(); err != nil {
		return nil, err
	}
	if err := s.trainLocal(); err != nil {
		return nil, err
	}
	return s, nil
}

// buildEpochs samples decision epochs, splits history/eval, and computes
// each epoch's true importance vector, signature and feature context.
func (s *Scenario) buildEpochs() error {
	want := s.Config.HistoryContexts + s.Config.EvalContexts
	pcs := mtl.SampleContexts(s.Trace, 24*time.Hour, want)
	if len(pcs) < want {
		// Thin the cadence didn't yield enough epochs; sample more often.
		pcs = mtl.SampleContexts(s.Trace, 12*time.Hour, want)
	}
	if len(pcs) < want {
		return fmt.Errorf("only %d epochs available, need %d: %w", len(pcs), want, ErrBadScenario)
	}
	epochs := make([]Epoch, 0, want)
	noise := mathx.NewRand(s.Config.Seed + 606)
	for _, pc := range pcs[:want] {
		imp, err := s.Engine.ImportanceVector(s.Sequencer, pc)
		if err != nil {
			return fmt.Errorf("importance at %v: %w", pc.Time, err)
		}
		epochs = append(epochs, Epoch{
			Plant:      pc,
			Importance: imp,
			Signature:  noisySignature(noise, signatureOf(pc), s.Config.SignatureNoise),
			FeatureCtx: featureCtxOf(pc),
		})
	}
	s.History = epochs[:s.Config.HistoryContexts]
	s.Eval = epochs[s.Config.HistoryContexts:]
	return nil
}

// signatureOf builds the sensing vector Z for an epoch: calendar phase,
// outdoor temperature, and normalized per-building demands.
func signatureOf(pc mtl.PlantContext) []float64 {
	yearFrac := float64(pc.Time.YearDay()-1) / 365
	hourFrac := float64(pc.Time.Hour()) / 24
	sig := []float64{
		math.Sin(2 * math.Pi * yearFrac),
		math.Cos(2 * math.Pi * yearFrac),
		math.Sin(2 * math.Pi * hourFrac),
	}
	var temp, demand float64
	for _, ctx := range pc.Contexts {
		temp += ctx.OutdoorC
		demand += ctx.DemandKW
	}
	n := float64(len(pc.Contexts))
	if n > 0 {
		sig = append(sig, temp/n/40, demand/n/10000)
	} else {
		sig = append(sig, 0, 0)
	}
	return sig
}

func featureCtxOf(pc mtl.PlantContext) features.Context {
	ctx := features.Context{Time: pc.Time, Condition: building.WeatherMild}
	var temp float64
	for _, c := range pc.Contexts {
		temp += c.OutdoorC
	}
	if len(pc.Contexts) > 0 {
		ctx.OutdoorTempC = temp / float64(len(pc.Contexts))
	}
	switch {
	case ctx.OutdoorTempC < 18:
		ctx.Condition = building.WeatherCool
	case ctx.OutdoorTempC < 24:
		ctx.Condition = building.WeatherMild
	case ctx.OutdoorTempC < 29:
		ctx.Condition = building.WeatherWarm
	default:
		ctx.Condition = building.WeatherHotHumid
	}
	return ctx
}

// buildInputBits derives per-task input sizes: proportional to the task's
// backing data volume, scaled to the configured average.
func (s *Scenario) buildInputBits() {
	tasks := s.Engine.Tasks()
	raw := make([]float64, len(tasks))
	var sum float64
	for i, t := range tasks {
		raw[i] = 1 + float64(t.SampleCount)
		sum += raw[i]
	}
	mean := sum / float64(len(raw))
	target := s.Config.AvgInputMbits * 1e6 // bits
	s.InputBits = make([]float64, len(raw))
	for i, v := range raw {
		s.InputBits[i] = v / mean * target
	}
}

func (s *Scenario) buildCluster() error {
	c, err := edgesim.NewCluster(s.Config.Workers)
	if err != nil {
		return err
	}
	c.BandwidthBps = s.Config.BandwidthBps
	s.Cluster = c
	imp := make([]float64, len(s.InputBits)) // placeholder importance
	s.Template, err = c.ProblemFor(imp, s.InputBits, s.Config.TimeLimit)
	if err != nil {
		return err
	}
	return nil
}

// buildStore snapshots each historical epoch into the environment store ℰ.
// Stored signatures receive their own, independent sensing noise: the Z
// recorded months ago and the Z sensed right now never line up exactly.
func (s *Scenario) buildStore() error {
	s.Store = core.NewEnvironmentStore()
	caps := make([]float64, len(s.Template.Processors))
	for i, pr := range s.Template.Processors {
		caps[i] = pr.Capacity
	}
	noise := mathx.NewRand(s.Config.Seed + 707)
	for _, ep := range s.History {
		env := &core.Environment{
			Importance: mathx.Clone(ep.Importance),
			Capacity:   caps,
			Signature:  noisySignature(noise, ep.Signature, s.Config.SignatureNoise),
		}
		if err := s.Store.Add(env); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// noisySignature perturbs each signature component with relative Gaussian
// sensing noise.
func noisySignature(rng *rand.Rand, sig []float64, rel float64) []float64 {
	out := mathx.Clone(sig)
	if rel <= 0 {
		return out
	}
	for i := range out {
		out[i] += rng.NormFloat64() * rel * (0.5 + math.Abs(out[i]))
	}
	return out
}

// CRL returns the scenario's offline general process: a CRL trained over
// Store with the scenario's CRL configuration (crlConfig) and Template. The
// first call trains it — over the store as it stands at that call, which in
// every program here is the store NewScenario or WithWorkers built — and
// every later call returns that one model and error. Concurrent first
// callers wait for the single training.
func (s *Scenario) CRL() (*core.CRL, error) {
	s.crl.once.Do(func() { s.crl.crl, s.crl.err = s.trainCRL() })
	return s.crl.crl, s.crl.err
}

// crlConfig is the offline CRL's configuration: the experiments' kNN
// definition (core.DefaultCRLConfig) with an agent sized to the scenario.
func (s *Scenario) crlConfig() core.CRLConfig {
	cfg := core.DefaultCRLConfig()
	cfg.Episodes = s.Config.CRLEpisodes
	cfg.Seed = s.Config.Seed + 101
	cfg.DQN = rl.DQNConfig{
		Hidden:          []int{48},
		BatchSize:       8,
		WarmupSteps:     64,
		TargetSyncEvery: 250,
		Epsilon: rl.EpsilonSchedule{
			Start: 1, End: 0.05,
			DecaySteps: s.Config.CRLEpisodes * (len(s.Template.Tasks) + s.Config.Workers) / 2,
		},
		Seed: s.Config.Seed + 202,
	}
	return cfg
}

func (s *Scenario) trainCRL() (*core.CRL, error) {
	crl, err := core.NewCRL(s.Template.Clone(), s.Store, s.crlConfig())
	if err != nil {
		return nil, fmt.Errorf("crl: %w", err)
	}
	if _, err := crl.Train(); err != nil {
		return nil, fmt.Errorf("crl train: %w", err)
	}
	return crl, nil
}

// trainLocal builds the local process from historical optimal decisions.
func (s *Scenario) trainLocal() error {
	oracle := alloc.NewOracleGreedy()
	var samples []alloc.LocalSample
	for _, ep := range s.History {
		prob := s.problemWithImportance(ep.Importance)
		res, err := oracle.Allocate(alloc.Request{Problem: prob})
		if err != nil {
			return fmt.Errorf("local oracle: %w", err)
		}
		vecs, err := s.Extractor.Vectors(ep.FeatureCtx)
		if err != nil {
			return fmt.Errorf("local features: %w", err)
		}
		samples = append(samples, alloc.SamplesFromDecision(vecs, res.Allocation)...)
		// Maintain the Past Success counters as decisions accumulate.
		for taskID, proc := range res.Allocation {
			if proc != core.Unassigned {
				if err := s.Extractor.RecordSuccess(taskID); err != nil {
					return err
				}
			}
		}
	}
	local := alloc.NewLocalModel(s.Config.Seed + 303)
	if err := local.Fit(samples); err != nil {
		return fmt.Errorf("local fit: %w", err)
	}
	s.Local = local
	return nil
}

// problemWithImportance clones the template and installs an importance
// vector.
func (s *Scenario) problemWithImportance(imp []float64) *core.Problem {
	p := s.Template.Clone()
	for i := range p.Tasks {
		v := 0.0
		if i < len(imp) {
			v = mathx.Clamp(imp[i], 0, 1)
		}
		p.Tasks[i].Importance = v
	}
	return p
}

// WithWorkers re-deploys the scenario on a cluster of a different size,
// reusing the expensive world state (trace, engine, epochs) and rebuilding
// everything that depends on the processor count: the cluster, the TATIM
// template, the environment store's capacities and the local model's Past
// Success counters. The clone's CRL (whose MDP dimensions include M) is its
// own, trained over the clone's store on its first read.
func (s *Scenario) WithWorkers(workers int) (*Scenario, error) {
	if workers < 1 {
		return nil, fmt.Errorf("workers %d: %w", workers, ErrBadScenario)
	}
	if workers == s.Config.Workers {
		return s, nil
	}
	clone := *s
	clone.Config.Workers = workers
	clone.crl = &lazyCRL{}
	var err error
	clone.Extractor, err = features.NewExtractor(clone.Trace, clone.Engine)
	if err != nil {
		return nil, fmt.Errorf("re-deploy extractor: %w", err)
	}
	if err := clone.buildCluster(); err != nil {
		return nil, fmt.Errorf("re-deploy cluster: %w", err)
	}
	if err := clone.buildStore(); err != nil {
		return nil, fmt.Errorf("re-deploy store: %w", err)
	}
	if err := clone.trainLocal(); err != nil {
		return nil, fmt.Errorf("re-deploy local: %w", err)
	}
	return &clone, nil
}

// Allocators builds the four §V strategies against this scenario.
func (s *Scenario) Allocators() (map[string]alloc.Allocator, error) {
	crl, err := s.CRL()
	if err != nil {
		return nil, err
	}
	crlAlloc, err := alloc.NewCRLAllocator(crl, s.crlConfig())
	if err != nil {
		return nil, err
	}
	dcta, err := alloc.NewDCTA(s.Store, s.crlConfig(), s.Local)
	if err != nil {
		return nil, err
	}
	return map[string]alloc.Allocator{
		"RM":   alloc.NewRandomMapping(s.Config.Seed + 404),
		"DML":  alloc.NewDML(),
		"CRL":  crlAlloc,
		"DCTA": dcta,
	}, nil
}

// RequestFor assembles the allocation request for an epoch.
func (s *Scenario) RequestFor(ep Epoch) (alloc.Request, error) {
	vecs, err := s.Extractor.Vectors(ep.FeatureCtx)
	if err != nil {
		return alloc.Request{}, err
	}
	return alloc.Request{
		Problem:   s.problemWithImportance(ep.Importance),
		Signature: ep.Signature,
		Features:  vecs,
	}, nil
}
