package experiments

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/mtl"
)

func mtlLearnerRidge() mtl.Learner { return mtl.LearnerRidge }

// fastConfig is a scaled-down scenario for unit tests.
func fastConfig(seed int64) ScenarioConfig {
	cfg := DefaultScenarioConfig(seed)
	cfg.Years = 1
	cfg.Tasks = 24
	cfg.HistoryContexts = 20
	cfg.EvalContexts = 4
	cfg.Workers = 5
	cfg.CRLEpisodes = 10
	return cfg
}

var (
	sharedOnce sync.Once
	sharedScn  *Scenario
	sharedErr  error
)

// sharedScenario builds one fast scenario reused across tests (a scenario
// build costs ~1s; tests only need read access).
func sharedScenario(t *testing.T) *Scenario {
	t.Helper()
	sharedOnce.Do(func() {
		sharedScn, sharedErr = NewScenario(fastConfig(1))
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedScn
}

func TestNewScenarioValidation(t *testing.T) {
	bad := fastConfig(1)
	bad.Years = 0
	if _, err := NewScenario(bad); !errors.Is(err, ErrBadScenario) {
		t.Fatalf("years=0 err = %v", err)
	}
	bad = fastConfig(1)
	bad.HistoryContexts = 1
	if _, err := NewScenario(bad); !errors.Is(err, ErrBadScenario) {
		t.Fatalf("history=1 err = %v", err)
	}
}

func TestScenarioShape(t *testing.T) {
	s := sharedScenario(t)
	if got := len(s.Engine.Tasks()); got != 24 {
		t.Fatalf("tasks = %d", got)
	}
	if len(s.History) != 20 || len(s.Eval) != 4 {
		t.Fatalf("epochs = %d/%d", len(s.History), len(s.Eval))
	}
	if len(s.InputBits) != 24 {
		t.Fatalf("input bits = %d", len(s.InputBits))
	}
	// Input sizes average to the configured mean.
	mean := mathx.Mean(s.InputBits)
	want := s.Config.AvgInputMbits * 1e6
	if mean < 0.9*want || mean > 1.1*want {
		t.Fatalf("mean input bits %v, want ≈%v", mean, want)
	}
	if s.Store.Len() != 20 {
		t.Fatalf("store = %d", s.Store.Len())
	}
	crl, err := s.CRL()
	if err != nil {
		t.Fatal(err)
	}
	if !crl.Trained() || !s.Local.Fitted() {
		t.Fatal("models not trained")
	}
	if len(s.Template.Processors) != 5 {
		t.Fatalf("template processors = %d", len(s.Template.Processors))
	}
}

func TestAllocatorsProduceFeasiblePlans(t *testing.T) {
	s := sharedScenario(t)
	allocators, err := s.Allocators()
	if err != nil {
		t.Fatal(err)
	}
	if len(allocators) != 4 {
		t.Fatalf("allocators = %d", len(allocators))
	}
	req, err := s.RequestFor(s.Eval[0])
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range allocators {
		res, err := a.Allocate(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		repairAllocation(req.Problem, res)
		if err := req.Problem.CheckFeasible(res.Allocation); err != nil {
			t.Fatalf("%s infeasible: %v", name, err)
		}
	}
}

func TestFig2LongTail(t *testing.T) {
	s := sharedScenario(t)
	r, err := Fig2LongTail(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.SortedImportance) != 24 || len(r.CumulativeShare) != 24 {
		t.Fatalf("lengths %d/%d", len(r.SortedImportance), len(r.CumulativeShare))
	}
	// Sorted descending; cumulative non-decreasing and ending at ≈1.
	for i := 1; i < len(r.SortedImportance); i++ {
		if r.SortedImportance[i] > r.SortedImportance[i-1] {
			t.Fatal("importance not sorted")
		}
		if r.CumulativeShare[i] < r.CumulativeShare[i-1]-1e-12 {
			t.Fatal("cumulative share decreasing")
		}
	}
	last := r.CumulativeShare[len(r.CumulativeShare)-1]
	if last < 0.999 || last > 1.001 {
		t.Fatalf("cumulative share ends at %v", last)
	}
	// Observation 1: long tail.
	if r.Stats.TopFractionFor80 > 0.5 {
		t.Fatalf("top fraction for 80%% = %v, expected long tail", r.Stats.TopFractionFor80)
	}
}

func TestFig3AccurateVsRandom(t *testing.T) {
	s := sharedScenario(t)
	r, err := Fig3AccurateVsRandom(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerEpoch) != len(s.Eval) {
		t.Fatalf("epochs = %d", len(r.PerEpoch))
	}
	for _, ep := range r.PerEpoch {
		if ep.Accurate < 0 || ep.Accurate > 1 || ep.Random < 0 || ep.Random > 1 {
			t.Fatalf("H outside [0,1]: %+v", ep)
		}
	}
	// Observation 2: accurate allocation should not lose to random.
	if r.MeanAccurate < r.MeanRandom-1e-9 {
		t.Fatalf("accurate %v < random %v", r.MeanAccurate, r.MeanRandom)
	}
}

func TestFig45ImportanceByOperation(t *testing.T) {
	s := sharedScenario(t)
	rows, err := Fig45ImportanceByOperation(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 24 {
		t.Fatalf("rows = %d", len(rows))
	}
	anyVariance := false
	for _, r := range rows {
		if r.MeanImportance < 0 || r.StdImportance < 0 {
			t.Fatalf("negative stats: %+v", r)
		}
		if r.Machine == "" || r.Operation == "" {
			t.Fatalf("unlabeled row: %+v", r)
		}
		if r.StdImportance > 0 {
			anyVariance = true
		}
	}
	// Observation 3: importance fluctuates across operations.
	if !anyVariance {
		t.Fatal("no task shows importance variation")
	}
}

func TestEnvMismatchPenalties(t *testing.T) {
	s := sharedScenario(t)
	r, err := EnvMismatchPenalties(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.AccurateObjective <= 0 {
		t.Fatalf("accurate objective = %v", r.AccurateObjective)
	}
	// The stale environment must hurt more than the defined one, and both
	// must not beat the accurate reference.
	if r.StaleObjective > r.AccurateObjective+1e-9 {
		t.Fatalf("stale %v beats accurate %v", r.StaleObjective, r.AccurateObjective)
	}
	if r.DefinedObjective > r.AccurateObjective+1e-9 {
		t.Fatalf("defined %v beats accurate %v", r.DefinedObjective, r.AccurateObjective)
	}
	if r.CRLPenaltyPct > r.RLPenaltyPct+1e-9 {
		t.Fatalf("clustering penalty %v%% should not exceed stale penalty %v%%",
			r.CRLPenaltyPct, r.RLPenaltyPct)
	}
}

func TestTableIFeatures(t *testing.T) {
	s := sharedScenario(t)
	rows, err := TableIFeatures(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Feature == "" {
			t.Fatal("unnamed feature")
		}
	}
}

func TestLocalModelComparison(t *testing.T) {
	s := sharedScenario(t)
	rows, err := LocalModelComparison(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TrainAcc < 0.5 || r.TrainAcc > 1 {
			t.Fatalf("%s train acc = %v", r.Model, r.TrainAcc)
		}
		if r.TestAcc < 0.4 || r.TestAcc > 1 {
			t.Fatalf("%s test acc = %v", r.Model, r.TestAcc)
		}
	}
}

func TestFig10And11Sweeps(t *testing.T) {
	s := sharedScenario(t)
	f10, err := Fig10DataSizeSweep(s, []float64{100, 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(f10.Points) != 2 {
		t.Fatalf("fig10 points = %d", len(f10.Points))
	}
	// More data → more PT for every method.
	for _, name := range MethodOrder {
		if f10.Points[1].MeanPT[name] <= f10.Points[0].MeanPT[name] {
			t.Fatalf("%s PT should grow with data size: %v vs %v",
				name, f10.Points[0].MeanPT[name], f10.Points[1].MeanPT[name])
		}
	}
	f11, err := Fig11BandwidthSweep(s, []float64{10, 100})
	if err != nil {
		t.Fatal(err)
	}
	// More bandwidth → less PT (or equal when compute-bound).
	for _, name := range MethodOrder {
		if f11.Points[1].MeanPT[name] > f11.Points[0].MeanPT[name]+1e-9 {
			t.Fatalf("%s PT should not grow with bandwidth: %v vs %v",
				name, f11.Points[0].MeanPT[name], f11.Points[1].MeanPT[name])
		}
	}
	if len(f11.SpeedupVs) == 0 {
		t.Fatal("missing speedup summary")
	}
}

func TestFig9WithWorkers(t *testing.T) {
	s := sharedScenario(t)
	f9, err := Fig9ProcessorSweep(s, []int{3, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(f9.Points) != 2 {
		t.Fatalf("fig9 points = %d", len(f9.Points))
	}
	for _, pt := range f9.Points {
		for _, name := range MethodOrder {
			if pt.MeanPT[name] <= 0 {
				t.Fatalf("%s PT = %v at %v workers", name, pt.MeanPT[name], pt.X)
			}
		}
	}
	// DCTA beats the importance-blind baselines at every point; against CRL
	// we only require rough parity here — the tiny test scenario (24 tasks,
	// 10 CRL episodes, 4 eval epochs) is too noisy to assert the full
	// paper-scale gap, which the default-scale benchmark measures.
	for _, pt := range f9.Points {
		for _, base := range []string{"RM", "DML"} {
			if pt.MeanPT["DCTA"] > pt.MeanPT[base] {
				t.Fatalf("DCTA PT %v loses to %s %v at %v workers",
					pt.MeanPT["DCTA"], base, pt.MeanPT[base], pt.X)
			}
		}
		if pt.MeanPT["DCTA"] > 1.25*pt.MeanPT["CRL"] {
			t.Fatalf("DCTA PT %v far behind CRL %v at %v workers",
				pt.MeanPT["DCTA"], pt.MeanPT["CRL"], pt.X)
		}
	}
}

func TestWithWorkersReuse(t *testing.T) {
	s := sharedScenario(t)
	same, err := s.WithWorkers(s.Config.Workers)
	if err != nil {
		t.Fatal(err)
	}
	if same != s {
		t.Fatal("same worker count should return the receiver")
	}
	if _, err := s.WithWorkers(0); !errors.Is(err, ErrBadScenario) {
		t.Fatalf("workers=0 err = %v", err)
	}
	re, err := s.WithWorkers(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Template.Processors) != 3 {
		t.Fatalf("re-deployed processors = %d", len(re.Template.Processors))
	}
	// World state is shared; deployment state is fresh.
	if re.Trace != s.Trace || re.Engine != s.Engine {
		t.Fatal("world state should be shared")
	}
	crl, err := s.CRL()
	if err != nil {
		t.Fatal(err)
	}
	reCRL, err := re.CRL()
	if err != nil {
		t.Fatal(err)
	}
	if reCRL == crl || re.Store == s.Store {
		t.Fatal("deployment state should be rebuilt")
	}
}

func TestRepairAllocation(t *testing.T) {
	s := sharedScenario(t)
	req, err := s.RequestFor(s.Eval[0])
	if err != nil {
		t.Fatal(err)
	}
	// Build a deliberately infeasible result: everything on processor 0.
	bad := make(core.Allocation, len(req.Problem.Tasks))
	prio := make([]float64, len(bad))
	for j := range bad {
		bad[j] = 0
		prio[j] = req.Problem.Tasks[j].Importance
	}
	res := &alloc.Result{Allocation: bad, Priority: prio}
	repairAllocation(req.Problem, res)
	if err := req.Problem.CheckFeasible(res.Allocation); err != nil {
		t.Fatalf("repair left infeasible plan: %v", err)
	}
	// The repaired plan keeps at least one task.
	kept := 0
	for _, p := range res.Allocation {
		if p != core.Unassigned {
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("repair dropped everything")
	}
}

func TestOfflineVsOnlineModes(t *testing.T) {
	s := sharedScenario(t)
	r, err := OfflineVsOnlineModes(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.AccurateObjective <= 0 {
		t.Fatalf("accurate objective = %v", r.AccurateObjective)
	}
	if r.OnlineObjective > r.AccurateObjective+1e-9 ||
		r.OfflineObjective > r.AccurateObjective+1e-9 {
		t.Fatalf("belief-driven capture beats accurate: %+v", r)
	}
	// §VII claims the online mode is more accurate; under our heavy sensing
	// noise the offline mode's averaging can win instead (recorded as a
	// deviation in EXPERIMENTS.md). Either way the two must stay in the
	// same band — a blow-up in either direction indicates a harness bug.
	if r.OnlinePenaltyPct > r.OfflinePenaltyPct+25 ||
		r.OfflinePenaltyPct > r.OnlinePenaltyPct+25 {
		t.Fatalf("mode penalties diverged: online %v%% vs offline %v%%",
			r.OnlinePenaltyPct, r.OfflinePenaltyPct)
	}
	// Default cluster count path.
	if _, err := OfflineVsOnlineModes(s, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRobustnessSweep(t *testing.T) {
	s := sharedScenario(t)
	points, err := RobustnessSweep(s, []float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, name := range MethodOrder {
		zero := points[0].MeanPT[name]
		half := points[1].MeanPT[name]
		if zero <= 0 || half <= 0 {
			t.Fatalf("%s PT non-positive: %v / %v", name, zero, half)
		}
		if half < zero-1e-9 {
			t.Fatalf("%s faults should not speed things up: %v vs %v", name, zero, half)
		}
	}
	// Default probabilities path.
	if _, err := RobustnessSweep(s, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMTLModeComparison(t *testing.T) {
	s := sharedScenario(t)
	rows, err := MTLModeComparison(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byMode := map[string]MTLModeRow{}
	for _, r := range rows {
		if r.MeanH < 0 || r.MeanH > 1 {
			t.Fatalf("%v/%v H = %v", r.Mode, r.Learner, r.MeanH)
		}
		if r.FittedTasks < 0 || r.FittedTasks > len(s.Engine.Tasks()) {
			t.Fatalf("%v fitted = %d", r.Mode, r.FittedTasks)
		}
		if r.FitSeconds < 0 {
			t.Fatalf("negative fit time")
		}
		if r.Learner == mtlLearnerRidge() {
			byMode[r.Mode.String()] = r
		}
	}
	// Under scarcity, the transfer modes must fit at least as many tasks as
	// independent training.
	indep := byMode["independent"].FittedTasks
	if byMode["self-adapted"].FittedTasks < indep || byMode["clustered"].FittedTasks < indep {
		t.Fatalf("transfer modes under independent: %+v", byMode)
	}
}

func TestSolverScaling(t *testing.T) {
	points, err := SolverScaling(1, []int{8, 16, 40}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// Exact runs only within the branch-and-bound cap.
	if points[0].ExactMicros <= 0 || points[1].ExactMicros <= 0 {
		t.Fatalf("exact skipped on small sizes: %+v", points[:2])
	}
	if points[2].ExactMicros != 0 {
		t.Fatalf("exact should be skipped at n=40: %+v", points[2])
	}
	for _, p := range points {
		if p.GreedyMicros < 0 {
			t.Fatalf("greedy time %v", p.GreedyMicros)
		}
		if p.ExactMicros > 0 && (p.GreedyOptimality <= 0 || p.GreedyOptimality > 1+1e-9) {
			t.Fatalf("optimality ratio %v", p.GreedyOptimality)
		}
	}
	if _, err := SolverScaling(1, []int{0}, 3); err == nil {
		t.Fatal("size 0 accepted")
	}
	// Default sizes path.
	if _, err := SolverScaling(2, nil, 0); err != nil {
		t.Fatal(err)
	}
}
