package main

// sut.go is the only file of the benchmark that imports the program under
// test (imports_test.go enforces it). Everything the rest of the package
// needs from the program crosses this file as plain data or as closures:
// worlds, the booted stack, the execution plane, and the per-layer calls the
// probes and the traced run time from outside.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"time"

	dcta "repro"
	"repro/internal/alloc"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edgenet"
	"repro/internal/edgesim"
	"repro/internal/knapsack"
	"repro/internal/mathx"
	"repro/internal/neural"
	"repro/internal/rl"
	"repro/internal/serve"
)

// worldConfig is the scenario of a named world. small is written out here
// rather than taken from one of the program's four copies of the scale
// table, so retiring those cannot move the benchmark.
func worldConfig(kind string) (dcta.ScenarioConfig, error) {
	cfg := dcta.DefaultScenarioConfig(worldSeed)
	switch kind {
	case paperWorld: // 50 tasks × 9 processors, 60 stored + 12 eval epochs
	case smallWorld:
		cfg.Years = 1
		cfg.Tasks = 24
		cfg.Workers = 5
		cfg.HistoryContexts = 40
		cfg.EvalContexts = 16
		cfg.CRLEpisodes = 10
	default:
		return cfg, fmt.Errorf("unknown world %q", kind)
	}
	return cfg, nil
}

// world is a built scenario plus what the generator and the validator read
// from it.
type world struct {
	Kind   string
	BuildS float64 // dcta.NewScenario wall time
	Limits limits
	Eval   []base // evaluation epochs: features and true importance
	Stored []base // stored environments: one per cluster, stored importance is the truth
	SigStd []float64

	scn *dcta.Scenario
	// subs[c] is cluster c's training sub-store, rebuilt the way serve
	// builds it, so the validator can recompute the importance the server
	// defined for a request.
	subs []*core.EnvironmentStore
}

func buildWorld(kind string) (*world, error) {
	cfg, err := worldConfig(kind)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	scn, err := dcta.NewScenario(cfg)
	if err != nil {
		return nil, fmt.Errorf("build %s world: %w", kind, err)
	}
	w := &world{Kind: kind, BuildS: time.Since(start).Seconds(), scn: scn}
	w.Limits.TimeLimit = scn.Template.TimeLimit
	for _, t := range scn.Template.Tasks {
		w.Limits.TaskTime = append(w.Limits.TaskTime, t.TimeCost)
		w.Limits.TaskRes = append(w.Limits.TaskRes, t.Resource)
	}
	for _, p := range scn.Template.Processors {
		w.Limits.ProcCap = append(w.Limits.ProcCap, p.Capacity)
	}
	for _, ep := range scn.Eval {
		vecs, err := scn.Extractor.Vectors(ep.FeatureCtx)
		if err != nil {
			return nil, fmt.Errorf("features: %w", err)
		}
		b, err := w.newBase(ep.Signature, ep.Importance, vecs)
		if err != nil {
			return nil, err
		}
		w.Eval = append(w.Eval, b)
	}
	stored := scn.Store.All()
	for _, env := range stored {
		b, err := w.newBase(env.Signature, env.Importance, nil)
		if err != nil {
			return nil, err
		}
		w.Stored = append(w.Stored, b)
	}
	w.SigStd = signatureStd(stored)
	neighborhood := serve.DefaultConfig().ClusterNeighborhood
	for _, rep := range stored {
		near, err := scn.Store.Nearest(rep.Signature, neighborhood)
		if err != nil {
			return nil, err
		}
		sub := core.NewEnvironmentStore()
		for _, env := range near {
			if err := sub.Add(env); err != nil {
				return nil, err
			}
		}
		w.subs = append(w.subs, sub)
	}
	return w, nil
}

func (w *world) newBase(sig, importance []float64, features [][]float64) (base, error) {
	b := base{Sig: mathx.Clone(sig), Cluster: w.nearest(sig), Features: features}
	for _, v := range importance {
		b.Truth = append(b.Truth, mathx.Clamp(v, 0, 1))
	}
	rep, err := w.scn.Store.At(b.Cluster)
	if err != nil {
		return b, err
	}
	for _, v := range rep.Importance {
		b.Expected = append(b.Expected, mathx.Clamp(v, 0, 1))
	}
	res, err := alloc.NewOracleGreedy().Allocate(alloc.Request{Problem: w.problemWith(b.Truth)})
	if err != nil {
		return b, fmt.Errorf("oracle: %w", err)
	}
	b.Oracle = planValue(res.Allocation, b.Truth)
	b.prepare()
	return b, nil
}

func signatureStd(envs []*core.Environment) []float64 {
	dim := len(envs[0].Signature)
	std := make([]float64, dim)
	for d := 0; d < dim; d++ {
		var sum, sq float64
		for _, e := range envs {
			sum += e.Signature[d]
			sq += e.Signature[d] * e.Signature[d]
		}
		n := float64(len(envs))
		std[d] = math.Sqrt(math.Max(0, sq/n-(sum/n)*(sum/n)))
	}
	return std
}

// problemWith is the template with an importance vector installed.
func (w *world) problemWith(importance []float64) *core.Problem {
	p := w.scn.Template.Clone()
	for j := range p.Tasks {
		p.Tasks[j].Importance = importance[j]
	}
	return p
}

// nearest is EnvironmentStore.NearestIndex, the policy-cache and ring key.
func (w *world) nearest(sig []float64) int {
	idx, _, err := w.scn.Store.NearestIndex(sig)
	if err != nil {
		return -1
	}
	return idx
}

// newDefiner returns a single-goroutine function giving the importance the
// server defines for a signature inside a cluster (kNN blend over the
// cluster's sub-store) — the basis of predicted_importance.
func (w *world) newDefiner() func(cluster int, sig []float64) []float64 {
	var env core.Environment
	var scratch core.KNNScratch
	k := core.DefaultCRLConfig().K
	return func(cluster int, sig []float64) []float64 {
		if cluster < 0 || cluster >= len(w.subs) {
			return nil
		}
		if err := w.subs[cluster].DefineBlendedInto(sig, k, &env, &scratch); err != nil {
			return nil
		}
		return env.Importance
	}
}

// --- the booted system ------------------------------------------------------

// stack is the system under test, booted through its public constructors and
// listening on loopback sockets.
type stack struct {
	Addr    string   // what clients dial: the router, or the single server
	Shards  []string // every serve node's own address
	Workers []string // edgenet worker addresses (edge_pt only)
	// Controller is the edgenet worker that stands for the controller's own
	// (laptop-class) processor, where a plan's fallback runs.
	Controller string

	servers []*serve.Server
	local   *cluster.LocalCluster
	closers []func()
}

func discard(string, ...any) {}

func serveConfig(w *world, spec workloadSpec) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.CRL.Episodes = w.scn.Config.CRLEpisodes
	cfg.Seed = worldSeed
	if spec.CacheCapacity > 0 {
		cfg.CacheCapacity = spec.CacheCapacity
	}
	cfg.Logf = discard
	return cfg
}

func bootStack(w *world, spec workloadSpec) (*stack, error) {
	st := &stack{}
	scn := w.scn
	cfg := serveConfig(w, spec)
	if spec.Router {
		lc, err := cluster.StartLocal(scn.Template, scn.Store, scn.Local, cluster.LocalOptions{
			Shards: 3, Serve: cfg, Logf: discard,
		})
		if err != nil {
			return nil, fmt.Errorf("boot cluster: %w", err)
		}
		st.local = lc
		st.closers = append(st.closers, lc.Close)
		st.Addr = lc.Addr()
		for i := 0; i < lc.Shards(); i++ {
			st.Shards = append(st.Shards, lc.ShardAddr(i))
			st.servers = append(st.servers, lc.Server(i))
		}
	} else {
		srv, err := serve.NewServer(scn.Template, scn.Store, scn.Local, cfg)
		if err != nil {
			return nil, fmt.Errorf("boot server: %w", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		ready := make(chan string, 1)
		done := make(chan error, 1)
		go func() {
			done <- serve.ListenAndServe(ctx, "127.0.0.1:0", srv, serve.HTTPOptions{},
				func(a net.Addr) { ready <- a.String() })
		}()
		select {
		case st.Addr = <-ready:
		case err := <-done:
			cancel()
			return nil, fmt.Errorf("boot server: %w", err)
		}
		st.closers = append(st.closers, func() { cancel(); <-done })
		st.Shards = []string{st.Addr}
		st.servers = []*serve.Server{srv}
	}
	if spec.EdgeWorkers {
		workers, controller, stop, err := w.bootWorkers(edgeTimeScale)
		if err != nil {
			st.close()
			return nil, err
		}
		st.Workers, st.Controller = workers, controller
		st.closers = append(st.closers, stop)
	}
	return st, nil
}

func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
	st.closers = nil
}

// owner is the index in Shards of the node that owns a cluster on the
// router's live ring (0 on a single node).
func (st *stack) owner(clusterKey int) int {
	if st.local == nil {
		return 0
	}
	id := st.local.Router().Ring().Owner(clusterKey)
	for i := 0; i < st.local.Shards(); i++ {
		if st.local.ShardID(i) == id {
			return i
		}
	}
	return 0
}

// shardHandler is shard i's HTTP front-end, callable without a socket.
func (st *stack) shardHandler(i int) http.Handler {
	return serve.NewHandler(st.servers[i], serve.HTTPOptions{})
}

// routerHandler is the router's HTTP front-end (nil on a single node).
func (st *stack) routerHandler() http.Handler {
	if st.local == nil {
		return nil
	}
	return cluster.NewHandler(st.local.Router())
}

// allocate calls Server.Allocate on shard i directly.
func (st *stack) allocate(i int, sig []float64, features [][]float64, allocator string) error {
	_, err := st.servers[i].Allocate(context.Background(), serve.AllocateRequest{
		Signature: sig, Features: features, Allocator: allocator,
	})
	return err
}

// --- the execution plane ------------------------------------------------------

// bootWorkers starts one edgenet worker per processor of the template, with
// the testbed's A+/B/B+ hardware cycle, and one more of the controller's
// laptop class.
func (w *world) bootWorkers(timeScale float64) (workers []string, controller string, stop func(), err error) {
	var started []*edgenet.Worker
	stop = func() {
		for _, wk := range started {
			wk.Close()
		}
	}
	nodes := append(append([]edgesim.Node(nil), w.scn.Cluster.Workers...), w.scn.Cluster.Controller)
	var addrs []string
	for i, node := range nodes {
		wk := &edgenet.Worker{ID: i + 1, Type: node.Type, TimeScale: timeScale}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, "", nil, fmt.Errorf("worker %d: %w", i, err)
		}
		if err := wk.Serve(ln); err != nil {
			ln.Close()
			stop()
			return nil, "", nil, err
		}
		started = append(started, wk)
		addrs = append(addrs, wk.Addr())
	}
	last := len(addrs) - 1
	return addrs[:last], addrs[last], stop, nil
}

// planReport is one dispatched plan's outcome.
type planReport struct {
	// Ready is the time from dispatch until the completed tasks covered the
	// target share of the epoch's true importance.
	Ready time.Duration
	// Fallback is set when the plan itself never got there and the
	// controller had to run the most important tasks it had dropped.
	Fallback bool
	Tasks    int     // tasks completed, fallback included
	SimS     float64 // edgesim.Simulate's PT for the same plan, simulated seconds
}

// executePlan dispatches a plan to the live workers with Controller.Run,
// judged against the epoch's true importance. A plan that drops too much of
// it never reaches the coverage target; PT is then defined the way
// edgesim.Simulate defines it: once the plan has run out, the controller
// itself executes the most important dropped tasks, one after the other,
// until the target is met. The same plan is also simulated.
func (w *world) executePlan(workers []string, controller string, truth []float64, allocation []int, priority []float64) (planReport, error) {
	p := w.problemWith(truth)
	res := &alloc.Result{Allocation: allocation, Priority: priority}
	coverage := w.scn.Config.CoverageTarget
	ctl := edgenet.NewController()
	start := time.Now()
	rep, err := ctl.Run(context.Background(), workers, p, res, coverage)
	if err != nil {
		return planReport{}, err
	}
	out := planReport{Ready: rep.DecisionReadyAt, Tasks: len(rep.Completions)}
	if sim, err := edgesim.Simulate(w.scn.Cluster, p, res, coverage); err == nil {
		out.SimS = sim.ProcessingTime
	}
	if rep.DecisionReadyAt > 0 {
		return out, nil
	}
	planRan := time.Since(start)
	total := p.TotalImportance()
	missing := coverage*total - rep.Covered
	var dropped []int
	for j, proc := range allocation {
		if proc == core.Unassigned {
			dropped = append(dropped, j)
		}
	}
	sort.Slice(dropped, func(a, b int) bool { return truth[dropped[a]] > truth[dropped[b]] })
	fallback := make(core.Allocation, len(allocation))
	for j := range fallback {
		fallback[j] = core.Unassigned
	}
	var adds float64
	for _, j := range dropped {
		fallback[j] = 0
		if adds += truth[j]; adds >= missing {
			break
		}
	}
	// The second run counts coverage from zero, so its target is what is
	// still missing; the slack keeps a float sum from falling just short.
	rep2, err := ctl.Run(context.Background(), []string{controller}, p,
		&alloc.Result{Allocation: fallback, Priority: truth}, (missing/total)*(1-1e-9))
	if err != nil {
		return planReport{}, fmt.Errorf("fallback: %w", err)
	}
	if rep2.DecisionReadyAt == 0 {
		return planReport{}, fmt.Errorf("fallback covered %.6g of the %.6g still missing", rep2.Covered, missing)
	}
	out.Ready = planRan + rep2.DecisionReadyAt
	out.Fallback = true
	out.Tasks += len(rep2.Completions)
	return out, nil
}

// newRandomPlanner returns the RM comparator: alloc.RandomMapping plans for
// an epoch's problem.
func (w *world) newRandomPlanner(seed int64) func(truth []float64) ([]int, []float64, error) {
	rm := alloc.NewRandomMapping(seed)
	return func(truth []float64) ([]int, []float64, error) {
		res, err := rm.Allocate(alloc.Request{Problem: w.problemWith(truth)})
		if err != nil {
			return nil, nil, err
		}
		return res.Allocation, res.Priority, nil
	}
}

// --- per-layer calls ------------------------------------------------------

// policy is a CRL the benchmark trains itself the way serve trains a cold
// cluster (the server's cached policies are private), and the scratch to
// time the warm path's pieces on it.
type policy struct {
	w        *world
	crl      *core.CRL
	cfg      serve.Config // W1, W2 and CoverageTarget of the DCTA branch
	Episodes int

	env      core.Environment
	knn      core.KNNScratch
	envs     []*core.Environment
	outs     []core.Allocation
	combined []float64
	featBuf  []float64
	pack     alloc.PackScratch
	plan     core.Allocation
}

// trainPolicy trains cluster c's policy from scratch, or fine-tunes from a
// donor on serve's reduced warm-start budget.
func (w *world) trainPolicy(c int, donor *policy) (*policy, error) {
	sc := serve.DefaultConfig()
	cfg := core.CRLConfig{
		K: core.DefaultCRLConfig().K, Blend: true,
		Episodes:   w.scn.Config.CRLEpisodes,
		Seed:       worldSeed + int64(c)*7919,
		StopWindow: 3,
	}
	cfg.DQN.Seed = cfg.Seed + 1
	if donor != nil {
		cfg.Episodes = max(1, int(float64(cfg.Episodes)*sc.WarmEpisodeFrac))
	}
	crl, err := core.NewCRL(w.scn.Template.Clone(), w.subs[c], cfg)
	if err != nil {
		return nil, err
	}
	if donor != nil {
		if err := crl.WarmStartFrom(donor.crl, core.WarmStart{Source: -1}); err != nil {
			return nil, err
		}
	}
	res, err := crl.Train()
	if err != nil {
		return nil, err
	}
	return &policy{w: w, crl: crl, cfg: sc, Episodes: res.Episodes}, nil
}

func (p *policy) knnIndex(sig []float64) { p.w.nearest(sig) }

func (p *policy) defineEnv(sig []float64) error {
	return p.crl.DefineEnvironmentInto(sig, &p.env, &p.knn)
}

// rollout rolls the greedy policy over the last defined environment, b times
// in one batch.
func (p *policy) rollout(b int) error {
	for len(p.envs) < b {
		p.envs = append(p.envs, &p.env)
		p.outs = append(p.outs, nil)
	}
	return p.crl.PredictBatchInto(p.envs[:b], p.outs[:b])
}

// combine mixes the defined importance with the local process (Eq. 6).
func (p *policy) combine(features [][]float64) error {
	var err error
	p.combined, p.featBuf, err = alloc.CombineScoresInto(
		p.w.scn.Local, p.env.Importance, features, p.cfg.W1, p.cfg.W2, p.combined, p.featBuf)
	return err
}

// packScores packs by the combined scores (the DCTA plan).
func (p *policy) packScores() {
	p.plan, _ = alloc.PackByScoreInto(p.w.scn.Template, p.combined, p.cfg.CoverageTarget, p.plan, &p.pack)
}

// packGuard packs by the defined importance (the CRL path's greedy guard).
func (p *policy) packGuard() {
	p.plan, _ = alloc.PackByScoreInto(p.w.scn.Template, p.env.Importance, 1, p.plan, &p.pack)
}

// probe is one layer timed from outside through its public function.
type probe struct {
	Name    string
	PerCall float64 // operations one Fn call performs (1 when 0)
	Slow    bool    // each call is long: time single calls, not batches
	Fn      func() error
}

// layerProbes builds the off-path probes at the world's dimensions, plus
// the values that are counts rather than times. pol is a trained policy of
// the most popular cluster; the returned stop releases what the probes hold.
func (w *world) layerProbes(pol *policy) ([]probe, map[string]float64, func(), error) {
	scn := w.scn
	top := &w.Eval[0]
	counts := map[string]float64{"core.train_episodes": float64(pol.Episodes)}
	fail := func(err error) ([]probe, map[string]float64, func(), error) { return nil, nil, nil, err }

	ring, err := cluster.NewRing(cluster.DefaultVNodes, []string{"s0", "s1", "s2"})
	if err != nil {
		return fail(err)
	}
	key := 0

	// Feedback without refits; alloc.local_fit_ms times the refit alone.
	fbCfg := serveConfig(w, workloadSpec{})
	fbCfg.RefitEvery = math.MaxInt32
	fbSrv, err := serve.NewServer(scn.Template, scn.Store, scn.Local, fbCfg)
	if err != nil {
		return fail(err)
	}
	oracle, err := alloc.NewOracleGreedy().Allocate(alloc.Request{Problem: w.problemWith(top.Truth)})
	if err != nil {
		return fail(err)
	}
	fbReq := serve.FeedbackRequest{Signature: top.Sig, Features: top.Features, Allocation: oracle.Allocation, Importance: top.Truth}

	drained, err := serve.NewServer(scn.Template, scn.Store, scn.Local, serveConfig(w, workloadSpec{}))
	if err != nil {
		return fail(err)
	}
	drained.Drain()
	allocReq := serve.AllocateRequest{Signature: top.Sig, Features: top.Features}

	var fitSamples []alloc.LocalSample
	for i := 0; len(fitSamples) < 4096; i++ {
		b := &w.Eval[i%len(w.Eval)]
		res, err := alloc.NewOracleGreedy().Allocate(alloc.Request{Problem: w.problemWith(b.Truth)})
		if err != nil {
			return fail(err)
		}
		fitSamples = append(fitSamples, alloc.SamplesFromDecision(b.Features, res.Allocation)...)
	}
	fitSamples = fitSamples[:4096]

	// The DQN at serve's default shape for this world's MDP.
	n, m := len(scn.Template.Tasks), len(scn.Template.Processors)
	stateSize, actions := 2*n*m, n+1
	dcfg := rl.DQNConfig{Seed: 1, WarmupSteps: 1}
	agent, err := rl.NewDQN(stateSize, actions, dcfg)
	if err != nil {
		return fail(err)
	}
	tr := rl.Transition{
		State: make([]float64, stateSize), Action: 1, Reward: 1,
		NextState: make([]float64, stateSize), NextValid: []int{0, 1, 2},
	}
	const hidden, dqnBatch = 64, 32 // rl.DQNConfig defaults serve trains with
	netw, err := neural.New(neural.Config{Layers: []int{stateSize, hidden, hidden, actions}, Seed: 1})
	if err != nil {
		return fail(err)
	}
	x1, x16 := mathx.NewMatrix(1, stateSize), mathx.NewMatrix(16, stateSize)
	ma, mb, mc := mathx.NewMatrix(dqnBatch, stateSize), mathx.NewMatrix(stateSize, hidden), mathx.NewMatrix(dqnBatch, hidden)
	rng := mathx.NewRand(1)
	for _, mat := range []*mathx.Matrix{x1, x16, ma, mb} {
		for i := range mat.Data {
			mat.Data[i] = rng.Float64()
		}
	}
	sack := w.problemWith(top.Truth).ToKnapsack()

	plan := &alloc.Result{Allocation: oracle.Allocation, Priority: oracle.Priority}
	problem := w.problemWith(top.Truth)
	ctl := edgenet.NewController()
	var frame bytes.Buffer
	assign := &edgenet.Envelope{Type: edgenet.MsgAssign, TaskID: 7, InputBits: 8e6, Importance: 0.5}

	if err := pol.defineEnv(top.Sig); err != nil {
		return fail(err)
	}
	// Last, so that no failure above has workers to stop.
	instant, _, stop, err := w.bootWorkers(0)
	if err != nil {
		return fail(err)
	}
	probes := []probe{
		{Name: "cluster.ring_owner_ns", Fn: func() error { ring.Owner(key); key = (key + 1) % len(w.Stored); return nil }},
		{Name: "serve.feedback_us", Fn: func() error { _, err := fbSrv.Feedback(context.Background(), fbReq); return err }},
		{Name: "serve.fallback_us", Fn: func() error { _, err := drained.Allocate(context.Background(), allocReq); return err }},
		{Name: "core.rollout_b4_us_per_req", PerCall: 4, Fn: func() error { return pol.rollout(4) }},
		{Name: "core.train_ms", Slow: true, Fn: func() error { _, err := w.trainPolicy(top.Cluster, nil); return err }},
		{Name: "core.train_warm_ms", Slow: true, Fn: func() error {
			_, err := w.trainPolicy(w.Eval[1%len(w.Eval)].Cluster, pol)
			return err
		}},
		{Name: "alloc.local_fit_ms", Slow: true, Fn: func() error { return alloc.NewLocalModel(1).Fit(fitSamples) }},
		{Name: "rl.dqn_step_us", Fn: func() error { return agent.Observe(tr) }},
		{Name: "neural.forward_b1_us", Fn: func() error { _, err := netw.ForwardBatch(x1); return err }},
		{Name: "neural.forward_b16_us", Fn: func() error { _, err := netw.ForwardBatch(x16); return err }},
		{Name: "mathx.matmul_us", Fn: func() error { return mathx.MatMul(mc, ma, mb) }},
		{Name: "knapsack.greedy_us", Fn: func() error { _, err := knapsack.SolveGreedy(sack); return err }},
		{Name: "edgenet.dispatch_us", Fn: func() error {
			_, err := ctl.Run(context.Background(), instant, problem, plan, scn.Config.CoverageTarget)
			return err
		}},
		{Name: "edgenet.frame_rt_ns", Fn: func() error {
			frame.Reset()
			if err := edgenet.WriteFrame(&frame, assign); err != nil {
				return err
			}
			_, err := edgenet.ReadFrame(&frame)
			return err
		}},
	}
	return probes, counts, stop, nil
}
