// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each BenchmarkFigN corresponds to one figure (see DESIGN.md §4); custom
// metrics report the paper-comparable statistics (speedups, long-tail
// fractions, improvement percentages) so `go test -bench` output doubles as
// the reproduction record.
package dcta_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/edgenet"
	"repro/internal/edgesim"
	"repro/internal/knapsack"
	"repro/internal/mathx"
	"repro/internal/mlearn"
	"repro/internal/neural"
	"repro/internal/rl"
	"repro/internal/serve"
	"repro/internal/wire"
)

var (
	benchOnce sync.Once
	benchScn  *dcta.Scenario
	benchErr  error
)

// benchScenario builds the paper-scale world once and shares it across
// benchmarks (the build itself is benchmarked separately).
func benchScenario(b testing.TB) *dcta.Scenario {
	b.Helper()
	benchOnce.Do(func() {
		benchScn, benchErr = dcta.NewScenario(dcta.DefaultScenarioConfig(1))
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchScn
}

// BenchmarkScenarioBuild measures the end-to-end world construction: trace
// generation, MTL fitting, importance computation, store building and
// local-process training. The offline CRL is not part of it: the scenario
// trains it on first read.
func BenchmarkScenarioBuild(b *testing.B) {
	cfg := dcta.DefaultScenarioConfig(7)
	cfg.HistoryContexts = 30
	cfg.EvalContexts = 6
	cfg.CRLEpisodes = 30
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dcta.NewScenario(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImportanceVector measures Definition 1 for all 50 tasks of one
// paper-world epoch: the three buildings prepared, the engine asked once per
// (chiller, band), and the owning building re-scored per task.
func BenchmarkImportanceVector(b *testing.B) {
	s := benchScenario(b)
	pc := s.History[0].Plant
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imp, err := s.Engine.ImportanceVector(s.Sequencer, pc)
		if err != nil {
			b.Fatal(err)
		}
		importanceSink = imp
	}
}

// importanceSink keeps BenchmarkImportanceVector's result alive.
var importanceSink []float64

// BenchmarkFig2LongTail regenerates Fig. 2 (task-importance long tail).
func BenchmarkFig2LongTail(b *testing.B) {
	s := benchScenario(b)
	var last *dcta.Fig2Result
	for i := 0; i < b.N; i++ {
		r, err := dcta.Fig2LongTail(s)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Stats.TopFractionFor80*100, "top%_for_80%")
	b.ReportMetric(last.Stats.Gini, "gini")
}

// BenchmarkFig3AccurateVsRandom regenerates Fig. 3 (decision performance of
// accurate vs random allocation).
func BenchmarkFig3AccurateVsRandom(b *testing.B) {
	s := benchScenario(b)
	var last *dcta.Fig3Result
	for i := 0; i < b.N; i++ {
		r, err := dcta.Fig3AccurateVsRandom(s)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.ImprovementPct, "improvement_%")
}

// BenchmarkFig45ImportanceByOperation regenerates Figs. 4-5 (importance mean
// and variation per machine × operation).
func BenchmarkFig45ImportanceByOperation(b *testing.B) {
	s := benchScenario(b)
	var rows []dcta.Fig45Row
	for i := 0; i < b.N; i++ {
		r, err := dcta.Fig45ImportanceByOperation(s)
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	var maxStd float64
	for _, r := range rows {
		if r.StdImportance > maxStd {
			maxStd = r.StdImportance
		}
	}
	b.ReportMetric(maxStd, "max_std")
}

// BenchmarkFig9ProcessorSweep regenerates Fig. 9 (PT vs processors).
func BenchmarkFig9ProcessorSweep(b *testing.B) {
	s := benchScenario(b)
	var last *dcta.PTSeries
	for i := 0; i < b.N; i++ {
		r, err := dcta.Fig9ProcessorSweep(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	reportSpeedups(b, last)
}

// BenchmarkFig10DataSizeSweep regenerates Fig. 10 (PT vs input data size).
func BenchmarkFig10DataSizeSweep(b *testing.B) {
	s := benchScenario(b)
	var last *dcta.PTSeries
	for i := 0; i < b.N; i++ {
		r, err := dcta.Fig10DataSizeSweep(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	reportSpeedups(b, last)
}

// BenchmarkFig11BandwidthSweep regenerates Fig. 11 (PT vs bandwidth).
func BenchmarkFig11BandwidthSweep(b *testing.B) {
	s := benchScenario(b)
	var last *dcta.PTSeries
	for i := 0; i < b.N; i++ {
		r, err := dcta.Fig11BandwidthSweep(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	reportSpeedups(b, last)
}

func reportSpeedups(b *testing.B, s *dcta.PTSeries) {
	b.Helper()
	for base, sp := range s.SpeedupVs {
		b.ReportMetric(sp.Mean, "mean_x_vs_"+base)
		b.ReportMetric(sp.Max, "max_x_vs_"+base)
	}
}

// BenchmarkEnvMismatchPenalties regenerates the §III-C (46.28%) and §IV-A
// (28.84%) inline environment-accuracy numbers.
func BenchmarkEnvMismatchPenalties(b *testing.B) {
	s := benchScenario(b)
	var last *dcta.EnvMismatchResult
	for i := 0; i < b.N; i++ {
		r, err := dcta.EnvMismatchPenalties(s)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.RLPenaltyPct, "rl_penalty_%")
	b.ReportMetric(last.CRLPenaltyPct, "crl_penalty_%")
}

// BenchmarkTableIFeatures regenerates Table I (feature extraction).
func BenchmarkTableIFeatures(b *testing.B) {
	s := benchScenario(b)
	for i := 0; i < b.N; i++ {
		if _, err := dcta.TableIFeatures(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalModelComparison regenerates the §IV-B SVM vs AdaBoost vs
// random-forest selection study.
func BenchmarkLocalModelComparison(b *testing.B) {
	s := benchScenario(b)
	var rows []dcta.ModelComparisonRow
	for i := 0; i < b.N; i++ {
		r, err := dcta.LocalModelComparison(s)
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	for _, r := range rows {
		b.ReportMetric(r.TestAcc*100, r.Model+"_test_%")
	}
}

// --- micro-benchmarks of the substrates -----------------------------------

// BenchmarkTraceGeneration measures the synthetic dataset generator (one
// building-year at hourly cadence).
func BenchmarkTraceGeneration(b *testing.B) {
	cfg := dcta.TraceConfig{Seed: 1, StartYear: 2015, Years: 1, StepHours: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dcta.GenerateTrace(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKnapsackGreedy measures the density-greedy MCMK heuristic at the
// paper's scale (50 items, 10 sacks).
func BenchmarkKnapsackGreedy(b *testing.B) {
	in := randomInstance(50, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := knapsack.SolveGreedy(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKnapsackExact measures the branch-and-bound reference at its size
// cap.
func BenchmarkKnapsackExact(b *testing.B) {
	in := randomInstance(16, 3)
	for i := 0; i < b.N; i++ {
		if _, err := knapsack.SolveExact(in); err != nil {
			b.Fatal(err)
		}
	}
}

func randomInstance(n, m int) *knapsack.Instance {
	rng := mathx.NewRand(3)
	in := &knapsack.Instance{}
	for i := 0; i < n; i++ {
		in.Items = append(in.Items, knapsack.Item{
			Value:  rng.Float64(),
			Weight: rng.Float64() * 3,
			Volume: rng.Float64(),
		})
	}
	for i := 0; i < m; i++ {
		in.Sacks = append(in.Sacks, knapsack.Sack{WeightCap: 5, VolumeCap: 3})
	}
	return in
}

// storedEnv is the allocation MDP of the paper world's i-th stored
// environment: 50×9, so 900 state inputs and 51 actions.
func storedEnv(b *testing.B, i int) *core.AllocEnv {
	s := benchScenario(b)
	stored := s.Store.All()[i]
	prob := s.Template.Clone()
	for j := range prob.Tasks {
		prob.Tasks[j].Importance = mathx.Clamp(stored.Importance[j], 0, 1)
	}
	env, err := core.NewAllocEnv(prob, stored.Signature)
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// dqnAgent is serve's DQN agent ([64,64], batch 32) on env after 8 real
// ε-greedy training episodes, which filled its replay ring.
func dqnAgent(b *testing.B, env *core.AllocEnv) *rl.DQN {
	agent, err := rl.NewDQN(env.StateSize(), env.ActionSize(), rl.DQNConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for ep := 0; ep < 8; ep++ {
		if _, _, err := agent.TrainEpisode(env, 0); err != nil {
			b.Fatal(err)
		}
	}
	return agent
}

// playEpisode returns the transitions of one ε-greedy episode of agent on
// env, without learning from them.
func playEpisode(b *testing.B, agent *rl.DQN, env *core.AllocEnv) []rl.Transition {
	var episode []rl.Transition
	var err error
	for state := env.Reset(); !env.Done(); {
		tr := rl.Transition{State: state}
		if tr.Action, err = agent.SelectAction(state, env.ValidActions()); err != nil {
			b.Fatal(err)
		}
		if tr.NextState, tr.Reward, tr.Done, err = env.Step(tr.Action); err != nil {
			b.Fatal(err)
		}
		tr.NextValid = env.ValidActions()
		episode = append(episode, tr)
		state = tr.NextState
	}
	return episode
}

// BenchmarkDQNStep measures one DQN observe/learn step of a served training:
// the paper world's 50×9 MDP (900 inputs, 51 actions), serve's agent ([64,64],
// batch 32), a replay ring filled by real ε-greedy episodes on a stored
// environment, and real transitions of that environment observed one after
// another.
func BenchmarkDQNStep(b *testing.B) {
	env := storedEnv(b, 0)
	agent := dqnAgent(b, env)
	episode := playEpisode(b, agent, env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := agent.Observe(episode[i%len(episode)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainBatch measures the learn step's TrainBatch alone — the
// kernel-level line under BenchmarkDQNStep: a copy of BenchmarkDQNStep's
// online network (900→64→64→51, plain SGD) stepping on a replay mini-batch of
// 32 transitions drawn from ε-greedy episodes on 8 stored environments, as a
// cluster's training draws them from its sub-store, with one taken action's
// output masked in per row.
func BenchmarkTrainBatch(b *testing.B) {
	agent := dqnAgent(b, storedEnv(b, 0))
	var pool []rl.Transition
	for i := 0; i < 8; i++ {
		pool = append(pool, playEpisode(b, agent, storedEnv(b, i))...)
	}
	net, err := agent.Online().Clone()
	if err != nil {
		b.Fatal(err)
	}
	const rows = 32
	states := mathx.NewMatrix(rows, net.InputSize())
	targets := mathx.NewMatrix(rows, net.OutputSize())
	mask := mathx.NewMatrix(rows, net.OutputSize())
	rng := mathx.NewRand(1)
	for r := 0; r < rows; r++ {
		tr := pool[rng.Intn(len(pool))]
		copy(states.Row(r), tr.State)
		targets.Set(r, tr.Action, tr.Reward)
		mask.Set(r, tr.Action, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.TrainBatch(states, targets, mask); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCRLTrain measures one per-cluster training — the recipe of
// training_test.go — with its allocations: the small world's warm-started
// fine-tune and the paper world's, and the paper world's training from
// scratch.
func BenchmarkCRLTrain(b *testing.B) {
	for _, bc := range []struct {
		name string
		scn  *dcta.Scenario
		warm bool
	}{
		{"small_warm", smallScenario(b), true},
		{"paper_warm", benchScenario(b), true},
		{"paper_scratch", benchScenario(b), false},
	} {
		w := newTrainWorld(b, bc.scn)
		var donor *core.CRL
		if bc.warm {
			donor = w.train(b, 0, nil)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.train(b, 1, donor)
			}
		})
	}
}

// BenchmarkForwardTailB1 measures the batch-of-1 network tail the greedy
// rollout pays after every assignment (64→64→51 from the first layer's sums,
// 41 of the 51 outputs open) at the allocation MDP's dimensions, with the
// ~16% nonzero environment half of the bench world.
func BenchmarkForwardTailB1(b *testing.B) {
	const cells, actions = 50 * 9, 51
	net, err := neural.New(neural.Config{Layers: []int{2 * cells, 64, 64, actions}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := mathx.NewRand(1)
	env := make([]float64, cells)
	for k := 0; k < cells; k += 6 {
		env[k] = rng.Float64()
	}
	var scratch neural.TailScratch
	sums := make([]float64, net.FirstLayerSize())
	if err := net.FirstLayerRange(sums, cells, env, &scratch); err != nil {
		b.Fatal(err)
	}
	open := make([]int, 0, actions)
	for o := 10; o < actions; o++ {
		open = append(open, o)
	}
	q := make([]float64, actions)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.ForwardTail(q, sums, open, &scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCRLRollout measures the warm CRL decision — the core.rollout_us
// line of the latency budget: one greedy rollout per environment at 50 tasks ×
// 9 processors through a [64,64] policy trained on the paper world, alone (b1)
// and as a PredictBatchInto batch of four (b4, ns/op covers all four).
func BenchmarkCRLRollout(b *testing.B) {
	s := benchScenario(b)
	cfg := core.DefaultCRLConfig()
	cfg.Episodes = 30
	crl, err := core.NewCRL(s.Template.Clone(), s.Store, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := crl.Train(); err != nil {
		b.Fatal(err)
	}
	var knn core.KNNScratch
	for _, batch := range []int{1, 4} {
		envs := make([]*core.Environment, batch)
		for i := range envs {
			envs[i] = &core.Environment{}
			if err := crl.DefineEnvironmentInto(s.Eval[i%len(s.Eval)].Signature, envs[i], &knn); err != nil {
				b.Fatal(err)
			}
		}
		out := make([]core.Allocation, batch)
		b.Run("b"+strconv.Itoa(batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := crl.PredictBatchInto(envs, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// wireBody starts a paper-scale request body the way bench/gen.go writes
// one: a 5-number signature in strconv's shortest 'g' form, then 50 tasks ×
// 12 Table-I features as json.Marshal writes them, half measurements at full
// precision and half small integers (building, model, condition) — ~6 KB,
// 605 numbers. The body is left open for the caller's further members.
func wireBody(b *testing.B, rng *rand.Rand) []byte {
	body := []byte(`{"signature":[`)
	for d := 0; d < 5; d++ {
		if d > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendFloat(body, rng.NormFloat64(), 'g', -1, 64)
	}
	features := make([][]float64, 50)
	for j := range features {
		for k := 0; k < 12; k++ {
			v := float64(rng.Intn(3))
			if k%2 == 0 {
				v = rng.NormFloat64()
			}
			features[j] = append(features[j], v)
		}
	}
	feat, err := json.Marshal(features)
	if err != nil {
		b.Fatal(err)
	}
	return append(append(body, `],"features":`...), feat...)
}

// wireAllocateBody is the allocate body the warm_dcta workload sends.
func wireAllocateBody(b *testing.B) []byte {
	return append(wireBody(b, mathx.NewRand(3)), '}')
}

// BenchmarkWireDecodeAllocate measures the shard's request decode (the
// serve.codec_us line of the latency budget) into a warmed target.
func BenchmarkWireDecodeAllocate(b *testing.B) {
	body := wireAllocateBody(b)
	var req wire.AllocateRequest
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := wire.DecodeAllocate(body, &req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecodeFeedback measures the shard's decode of the feedback
// write router_mixed sends after every 8th allocate: the allocate body's
// members plus the executed allocation, the observed importance (json.Marshal
// floats) and a seq, as bench/gen.go appends them. Feedback reuses nothing,
// so each decode allocates its slices.
func BenchmarkWireDecodeFeedback(b *testing.B) {
	rng := mathx.NewRand(4)
	body := append(wireBody(b, rng), `,"allocation":[`...)
	importance := make([]float64, 50)
	for j := range importance {
		if j > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendInt(body, int64(rng.Intn(10)-1), 10)
		importance[j] = rng.ExpFloat64() / 50
	}
	imp, err := json.Marshal(importance)
	if err != nil {
		b.Fatal(err)
	}
	body = append(append(append(body, `],"importance":`...), imp...), `,"seq":4242}`...)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var req wire.FeedbackRequest
		if err := wire.DecodeFeedback(body, &req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEncodeAllocateResponse measures the shard's answer encode for
// a 50-task allocation.
func BenchmarkWireEncodeAllocateResponse(b *testing.B) {
	resp := wire.AllocateResponse{Allocation: make([]int, 50), Cluster: 41, Cache: serve.CacheBypass,
		Allocator: "DCTA", Mode: serve.ModeNormal, PredictedImportance: 3.0517578125, LatencyNanos: 6021}
	for j := range resp.Allocation {
		resp.Allocation[j] = j%10 - 1
	}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = wire.AppendAllocateResponse(buf[:0], &resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireScanSignature measures the router's pass over the same body:
// the signature decoded, the features checked but not parsed.
func BenchmarkWireScanSignature(b *testing.B) {
	body := wireAllocateBody(b)
	var sig []float64
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if sig, err = wire.ScanSignature(wire.Allocate, body, sig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVMTrain measures local-process training at its experiment scale.
func BenchmarkSVMTrain(b *testing.B) {
	rng := mathx.NewRand(5)
	n, dim := 600, 12
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = make([]float64, dim)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		if x[i][0] > 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	d, err := mlearn.NewDataset(x, y)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		svm := mlearn.NewSVM()
		if err := svm.Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocateAndSimulate measures one full decision cycle (allocate +
// simulate) for every strategy.
func BenchmarkAllocateAndSimulate(b *testing.B) {
	s := benchScenario(b)
	allocators, err := s.Allocators()
	if err != nil {
		b.Fatal(err)
	}
	req, err := s.RequestFor(s.Eval[0])
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range dcta.MethodOrder {
		a := allocators[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := a.Allocate(req)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dcta.Simulate(s.Cluster, req.Problem, res, 0.8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOfflineVsOnlineModes regenerates the §VII environment-definition
// mode comparison (offline k-means vs online kNN).
func BenchmarkOfflineVsOnlineModes(b *testing.B) {
	s := benchScenario(b)
	var last *dcta.ModeComparisonResult
	for i := 0; i < b.N; i++ {
		r, err := dcta.OfflineVsOnlineModes(s, 6)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.OnlinePenaltyPct, "online_penalty_%")
	b.ReportMetric(last.OfflinePenaltyPct, "offline_penalty_%")
}

// BenchmarkRobustnessSweep measures PT degradation under crash-stop worker
// failures (extension; DESIGN.md §5).
func BenchmarkRobustnessSweep(b *testing.B) {
	s := benchScenario(b)
	var points []dcta.RobustnessPoint
	for i := 0; i < b.N; i++ {
		r, err := dcta.RobustnessSweep(s, []float64{0, 0.25, 0.5})
		if err != nil {
			b.Fatal(err)
		}
		points = r
	}
	last := points[len(points)-1]
	for _, name := range dcta.MethodOrder {
		b.ReportMetric(last.MeanPT[name], name+"_pt_at_50%_faults")
	}
}

// BenchmarkMTLModeComparison evaluates the §V-B MTL modes (independent,
// self-adapted, clustered) and base learners under data scarcity.
func BenchmarkMTLModeComparison(b *testing.B) {
	s := benchScenario(b)
	var rows []dcta.MTLModeRow
	for i := 0; i < b.N; i++ {
		r, err := dcta.MTLModeComparison(s)
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	for _, r := range rows {
		b.ReportMetric(r.MeanH, r.Mode.String()+"_"+r.Learner.String()+"_H")
	}
}

// --- serving warm path ----------------------------------------------------

// benchServeServer builds a small two-cluster allocation server (the same
// shape as internal/serve's acceptance fixtures) and answers both clusters a
// few times, so the benchmarks below measure only the steady-state path.
func benchServeServer(b *testing.B) *serve.Server {
	b.Helper()
	tmpl := &core.Problem{TimeLimit: 2}
	for j := 0; j < 6; j++ {
		tmpl.Tasks = append(tmpl.Tasks, core.TaskSpec{ID: j, TimeCost: 1, Resource: 0.5})
	}
	for i := 0; i < 2; i++ {
		tmpl.Processors = append(tmpl.Processors, core.Processor{ID: i, Capacity: 2, SpeedFactor: 1})
	}
	store := core.NewEnvironmentStore()
	for cluster := 0; cluster < 2; cluster++ {
		imp := make([]float64, 6)
		for j := range imp {
			imp[j] = 0.05
		}
		for j := 0; j < 3; j++ {
			imp[3*cluster+j] = 0.9
		}
		if err := store.Add(&core.Environment{
			Importance: imp,
			Capacity:   []float64{2, 2},
			Signature:  []float64{float64(cluster)},
		}); err != nil {
			b.Fatal(err)
		}
	}
	cfg := serve.DefaultConfig()
	cfg.ClusterNeighborhood = 1
	cfg.CRL = core.CRLConfig{
		K:        1,
		Episodes: 8,
		Seed:     11,
		DQN: rl.DQNConfig{
			Hidden:      []int{16},
			BatchSize:   8,
			WarmupSteps: 16,
			Epsilon:     rl.EpsilonSchedule{Start: 1, End: 0.1, DecaySteps: 60},
			Seed:        12,
		},
	}
	s, err := serve.NewServer(tmpl, store, nil, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for cluster := 0; cluster < 2; cluster++ {
		req := serve.AllocateRequest{Signature: []float64{float64(cluster)}}
		for i := 0; i < 4; i++ {
			if _, err := s.Allocate(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	}
	return s
}

// BenchmarkServeWarmAllocate measures one warm allocate on the crl arm
// through the exported API — the per-request cost the BENCH_PR*.json warm
// p50 is built from, minus HTTP/JSON.
func BenchmarkServeWarmAllocate(b *testing.B) {
	s := benchServeServer(b)
	ctx := context.Background()
	req := serve.AllocateRequest{Signature: []float64{0}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := s.Allocate(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Mode != serve.ModeNormal {
			b.Fatalf("degraded answer: %+v", resp)
		}
	}
}

// BenchmarkServeWarmAllocateParallel drives the same warm path from many
// goroutines across both clusters, every request for a cluster reading its
// one shared sub-store at once: one goroutine per GOMAXPROCS ("procs") and 64
// clients ("c64", the load ROADMAP item 6 judges the warm path's tail at).
// Beside ns/op and allocs/op it reports p99_ns, the 99th percentile of one
// Allocate call's latency.
func BenchmarkServeWarmAllocateParallel(b *testing.B) {
	for _, tc := range []struct {
		name    string
		clients int // 0: one per GOMAXPROCS
	}{{"procs", 0}, {"c64", 64}} {
		b.Run(tc.name, func(b *testing.B) {
			s := benchServeServer(b)
			if tc.clients > 0 {
				procs := runtime.GOMAXPROCS(0)
				b.SetParallelism((tc.clients + procs - 1) / procs)
			}
			lat := make([]int64, b.N)
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				ctx := context.Background()
				cluster := 0
				for pb.Next() {
					req := serve.AllocateRequest{Signature: []float64{float64(cluster)}}
					cluster ^= 1
					start := time.Now()
					resp, err := s.Allocate(ctx, req)
					lat[next.Add(1)-1] = int64(time.Since(start))
					if err != nil {
						b.Fatal(err)
					}
					if resp.Mode != serve.ModeNormal {
						b.Fatalf("degraded answer: %+v", resp)
					}
				}
			})
			b.StopTimer()
			slices.Sort(lat)
			b.ReportMetric(float64(lat[(len(lat)-1)*99/100]), "p99_ns")
		})
	}
}

// BenchmarkSolverScaling times the Theorem-1 solvers across problem sizes.
func BenchmarkSolverScaling(b *testing.B) {
	var points []dcta.ScalingPoint
	for i := 0; i < b.N; i++ {
		p, err := dcta.SolverScaling(1, nil, 3)
		if err != nil {
			b.Fatal(err)
		}
		points = p
	}
	for _, p := range points {
		if p.ExactMicros > 0 {
			b.ReportMetric(p.ExactMicros, "exact_us_n"+strconv.Itoa(p.Tasks))
		}
	}
}

// BenchmarkEdgeDispatch measures one Controller.Run of a 50-task plan on 9
// instant edgenet workers at the paper's 0.8 coverage, run after run as the
// edge_pt workload dispatches its plans: the fleet's sessions carry over
// from one run to the next, so an op is the dispatch, the completions and
// the cancel barrier, not the dial and greeting.
func BenchmarkEdgeDispatch(b *testing.B) {
	const tasks, workers = 50, 9
	addrs := make([]string, workers)
	p := &core.Problem{TimeLimit: 100}
	for i := range addrs {
		w := &edgenet.Worker{ID: i + 1, Type: edgesim.RaspberryPiB}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Serve(l); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { w.Close() })
		addrs[i] = w.Addr()
		p.Processors = append(p.Processors, core.Processor{ID: i, Capacity: 100, SpeedFactor: 1})
	}
	res := &alloc.Result{Allocation: make(core.Allocation, tasks), Priority: make([]float64, tasks)}
	for j := 0; j < tasks; j++ {
		imp := 1 / float64(j+1) // a long tail, as the paper's importance
		p.Tasks = append(p.Tasks, core.TaskSpec{ID: j, Importance: imp, TimeCost: 1, InputBits: 1000})
		res.Allocation[j], res.Priority[j] = j%workers, imp
	}
	ctx := context.Background()
	if _, err := edgenet.NewController().Run(ctx, addrs, p, res, 0.8); err != nil { // greet once
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := edgenet.NewController().Run(ctx, addrs, p, res, 0.8); err != nil {
			b.Fatal(err)
		}
	}
}
