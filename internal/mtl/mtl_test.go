package mtl

import (
	"errors"
	"testing"
	"time"

	"repro/internal/building"
	"repro/internal/mathx"
)

func testTrace(t *testing.T, seed int64) *building.Trace {
	t.Helper()
	tr, err := building.Generate(building.Config{
		Seed: seed, StartYear: 2015, Years: 1, StepHours: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func trainedEngine(t *testing.T, tr *building.Trace) *Engine {
	t.Helper()
	e, err := NewEngine(tr, DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Fit(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEnumerateTasksCount(t *testing.T) {
	tr := testTrace(t, 1)
	all := EnumerateTasks(tr, 0)
	if len(all) != 17*3 {
		t.Fatalf("full enumeration = %d, want 51", len(all))
	}
	fifty := EnumerateTasks(tr, 50)
	if len(fifty) != 50 {
		t.Fatalf("trimmed enumeration = %d, want 50", len(fifty))
	}
	// IDs must be dense and ordered.
	for i, task := range fifty {
		if task.ID != i {
			t.Fatalf("task %d has ID %d", i, task.ID)
		}
	}
	// Trimming drops the most data-starved task.
	minFull := all[0].SampleCount
	for _, task := range all {
		if task.SampleCount < minFull {
			minFull = task.SampleCount
		}
	}
	for _, task := range fifty {
		if task.SampleCount < minFull {
			t.Fatalf("trim kept a task with %d < min %d samples", task.SampleCount, minFull)
		}
	}
	if fifty[0].String() == "" {
		t.Error("task String broken")
	}
}

func TestEngineFitAndEstimate(t *testing.T) {
	tr := testTrace(t, 2)
	e := trainedEngine(t, tr)
	fitted := 0
	for _, task := range e.Tasks() {
		if e.HasModel(task.ID) {
			fitted++
			cop, ok := e.Estimate(task.ChillerID, task.Band, 26)
			if !ok {
				t.Fatalf("fitted task %v abstained", task)
			}
			if cop < 0.3 || cop > 8 {
				t.Fatalf("task %v estimate %v out of range", task, cop)
			}
		}
	}
	if fitted < 40 {
		t.Fatalf("only %d/50 tasks fitted", fitted)
	}
	// Unknown pair abstains.
	if _, ok := e.Estimate(-1, building.BandMid, 26); ok {
		t.Fatal("unknown chiller should abstain")
	}
}

func TestEngineEstimatesTrackPhysics(t *testing.T) {
	tr := testTrace(t, 3)
	e := trainedEngine(t, tr)
	// For tasks with plenty of data, the model estimate at the band midpoint
	// should be within ~20% of the hidden true physics.
	checked := 0
	for _, task := range e.Tasks() {
		if task.SampleCount < 300 || !e.HasModel(task.ID) {
			continue
		}
		est, ok := e.Estimate(task.ChillerID, task.Band, 25)
		if !ok {
			continue
		}
		truth, err := tr.TrueCOPFor(task.ChillerID, bandMidpoint(task.Band), 25, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if rel := mathxAbs(est-truth) / truth; rel > 0.20 {
			t.Fatalf("task %v: estimate %v vs truth %v (%.0f%% off)", task, est, truth, rel*100)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no data-rich tasks to check")
	}
}

func mathxAbs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestTransferHelpsScarceTasks(t *testing.T) {
	tr := testTrace(t, 4)
	noTransfer := DefaultEngineConfig()
	noTransfer.Transfer = false
	withTransfer := DefaultEngineConfig()

	en, err := NewEngine(tr, noTransfer)
	if err != nil {
		t.Fatal(err)
	}
	if err := en.Fit(); err != nil {
		t.Fatal(err)
	}
	et, err := NewEngine(tr, withTransfer)
	if err != nil {
		t.Fatal(err)
	}
	if err := et.Fit(); err != nil {
		t.Fatal(err)
	}
	// Transfer must fit at least as many tasks as no-transfer.
	fitted := func(e *Engine) int {
		n := 0
		for _, task := range e.Tasks() {
			if e.HasModel(task.ID) {
				n++
			}
		}
		return n
	}
	if fitted(et) < fitted(en) {
		t.Fatalf("transfer fitted %d < no-transfer %d", fitted(et), fitted(en))
	}
}

func TestSampleContexts(t *testing.T) {
	tr := testTrace(t, 5)
	pcs := SampleContexts(tr, 24*time.Hour, 30)
	if len(pcs) != 30 {
		t.Fatalf("contexts = %d, want 30", len(pcs))
	}
	for _, pc := range pcs {
		if len(pc.Contexts) == 0 {
			t.Fatal("empty plant context")
		}
		for _, ctx := range pc.Contexts {
			if ctx.Building == nil || ctx.DemandKW <= 0 {
				t.Fatalf("bad context %+v", ctx)
			}
		}
	}
	// Zero cadence defaults to daily; unlimited works.
	all := SampleContexts(tr, 0, 0)
	if len(all) < 300 {
		t.Fatalf("a year of daily contexts = %d, want ≥ 300", len(all))
	}
}

func TestImportanceDefinitionOne(t *testing.T) {
	tr := testTrace(t, 6)
	e := trainedEngine(t, tr)
	seq := building.NewSequencer()
	pcs := SampleContexts(tr, 24*time.Hour, 5)
	if len(pcs) == 0 {
		t.Fatal("no contexts")
	}
	vec, err := e.ImportanceVector(seq, pcs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != len(e.Tasks()) {
		t.Fatalf("importance length %d", len(vec))
	}
	for i, v := range vec {
		if v < 0 || v > 1 {
			t.Fatalf("importance[%d] = %v outside [0,1]", i, v)
		}
	}
	// Spot-check the vector against the single-task path.
	one, err := e.Importance(seq, pcs[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if mathxAbs(one-vec[3]) > 1e-12 {
		t.Fatalf("Importance(3) = %v but vector says %v", one, vec[3])
	}
	if _, err := e.Importance(seq, pcs[0], 9999); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("unknown task err = %v", err)
	}
}

func TestImportanceLongTail(t *testing.T) {
	tr := testTrace(t, 7)
	e := trainedEngine(t, tr)
	seq := building.NewSequencer()
	pcs := SampleContexts(tr, 24*time.Hour, 20)
	// Per-task mean and variance of importance across the contexts: the data
	// behind Figs. 4–5.
	mean := make([]float64, len(e.tasks))
	variance := make([]float64, len(e.tasks))
	for _, pc := range pcs {
		vec, err := e.ImportanceVector(seq, pc)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vec {
			mean[i] += v / float64(len(pcs))
			variance[i] += v * v / float64(len(pcs))
		}
	}
	for i, m := range mean {
		variance[i] -= m * m
	}
	stats := AnalyzeLongTail(mean)
	// Observation 1: only a few tasks are important. The top ≤40% of tasks
	// must carry ≥80% of total importance, and inequality must be
	// substantial.
	if total := mathx.Sum(mean); total <= 0 {
		t.Skip("no importance mass in this sample — degenerate draw")
	}
	if stats.TopFractionFor80 > 0.4 {
		t.Fatalf("top fraction for 80%% = %v, want ≤ 0.4 (long tail)", stats.TopFractionFor80)
	}
	if stats.Gini < 0.4 {
		t.Fatalf("Gini = %v, want ≥ 0.4 (long tail)", stats.Gini)
	}
	// Observation 3: importance fluctuates — some task must have non-zero
	// variance across contexts.
	if mathx.MaxOf(variance) <= 0 {
		t.Fatal("importance shows no variation across contexts")
	}
}

func TestOverallPerformanceErrors(t *testing.T) {
	tr := testTrace(t, 8)
	e, err := NewEngine(tr, DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq := building.NewSequencer()
	pcs := SampleContexts(tr, 24*time.Hour, 1)
	if _, err := e.OverallPerformance(seq, pcs[0]); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("untrained err = %v", err)
	}
	if err := e.Fit(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.OverallPerformance(seq, PlantContext{}); err == nil {
		t.Fatal("empty context should error")
	}
	h, err := e.OverallPerformance(seq, pcs[0])
	if err != nil {
		t.Fatal(err)
	}
	if h < 0 || h > 1 {
		t.Fatalf("H = %v outside [0,1]", h)
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, DefaultEngineConfig()); !errors.Is(err, building.ErrNoRecords) {
		t.Fatalf("nil trace err = %v", err)
	}
	tr := testTrace(t, 9)
	e, err := NewEngine(tr, EngineConfig{MaxTasks: 10, TrainFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Tasks()) != 10 {
		t.Fatalf("MaxTasks not applied: %d", len(e.Tasks()))
	}
	if _, err := e.Task(5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Task(-1); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("negative id err = %v", err)
	}
}

func TestDataScarcityDegradesAccuracy(t *testing.T) {
	tr := testTrace(t, 10)
	rich := DefaultEngineConfig()
	rich.Transfer = false
	scarce := rich
	scarce.TrainFraction = 0.02
	scarce.Seed = 42

	er, err := NewEngine(tr, rich)
	if err != nil {
		t.Fatal(err)
	}
	if err := er.Fit(); err != nil {
		t.Fatal(err)
	}
	es, err := NewEngine(tr, scarce)
	if err != nil {
		t.Fatal(err)
	}
	if err := es.Fit(); err != nil {
		t.Fatal(err)
	}
	// The scarce engine should fit fewer or equal task models.
	count := func(e *Engine) int {
		n := 0
		for _, task := range e.Tasks() {
			if e.HasModel(task.ID) {
				n++
			}
		}
		return n
	}
	if count(es) > count(er) {
		t.Fatalf("scarce engine fitted %d > rich %d", count(es), count(er))
	}
}

func TestModeAndLearnerStrings(t *testing.T) {
	if ModeSelfAdapted.String() != "self-adapted" || ModeIndependent.String() != "independent" ||
		ModeClustered.String() != "clustered" || Mode(99).String() == "" {
		t.Error("Mode.String broken")
	}
	if LearnerRidge.String() != "ridge" || LearnerForest.String() != "forest" ||
		LearnerKNN.String() != "knn" || Learner(99).String() == "" {
		t.Error("Learner.String broken")
	}
}

func TestMTLModes(t *testing.T) {
	tr := testTrace(t, 11)
	fitted := func(mode Mode, learner Learner) (int, *Engine) {
		cfg := DefaultEngineConfig()
		cfg.Mode = mode
		cfg.Learner = learner
		e, err := NewEngine(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Fit(); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, task := range e.Tasks() {
			if e.HasModel(task.ID) {
				n++
			}
		}
		return n, e
	}
	nIndep, _ := fitted(ModeIndependent, LearnerRidge)
	nSelf, _ := fitted(ModeSelfAdapted, LearnerRidge)
	nClust, eClust := fitted(ModeClustered, LearnerRidge)
	// Pooling modes fit at least as many tasks as independent training.
	if nSelf < nIndep || nClust < nIndep {
		t.Fatalf("transfer modes fitted fewer tasks: indep %d, self %d, clustered %d",
			nIndep, nSelf, nClust)
	}
	// Clustered estimates stay physically sane.
	for _, task := range eClust.Tasks() {
		if !eClust.HasModel(task.ID) {
			continue
		}
		if cop, ok := eClust.Estimate(task.ChillerID, task.Band, 25); ok && (cop < 0.3 || cop > 8) {
			t.Fatalf("clustered estimate %v out of range", cop)
		}
	}
}

func TestAlternativeLearners(t *testing.T) {
	tr := testTrace(t, 12)
	for _, learner := range []Learner{LearnerForest, LearnerKNN} {
		cfg := DefaultEngineConfig()
		cfg.Learner = learner
		e, err := NewEngine(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Fit(); err != nil {
			t.Fatalf("%v fit: %v", learner, err)
		}
		checked := 0
		for _, task := range e.Tasks() {
			if task.SampleCount < 300 || !e.HasModel(task.ID) {
				continue
			}
			est, ok := e.Estimate(task.ChillerID, task.Band, 25)
			if !ok {
				continue
			}
			truth, err := tr.TrueCOPFor(task.ChillerID, bandMidpoint(task.Band), 25, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			if rel := mathxAbs(est-truth) / truth; rel > 0.35 {
				t.Fatalf("%v task %v: estimate %v vs truth %v", learner, task, est, truth)
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("%v: no data-rich tasks checked", learner)
		}
	}
}
