package alloc

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/mathx"
	"repro/internal/mlearn"
	"repro/internal/rl"
)

// testProblem builds a TATIM instance with long-tail importance: a few
// heavy-hitters and a tail of near-zero tasks.
func testProblem(seed int64, n, m int) *core.Problem {
	rng := mathx.NewRand(seed)
	p := &core.Problem{TimeLimit: 4}
	for j := 0; j < n; j++ {
		imp := 0.02 * rng.Float64()
		if j < n/5 {
			imp = 0.6 + 0.4*rng.Float64()
		}
		p.Tasks = append(p.Tasks, core.TaskSpec{
			ID:         j,
			Importance: imp,
			TimeCost:   0.4 + rng.Float64(),
			Resource:   0.2 + 0.3*rng.Float64(),
			InputBits:  1e6 * (1 + rng.Float64()),
		})
	}
	for i := 0; i < m; i++ {
		p.Processors = append(p.Processors, core.Processor{
			ID: i, Capacity: 2 + rng.Float64(), SpeedFactor: 1,
		})
	}
	return p
}

func TestRandomMappingFeasible(t *testing.T) {
	p := testProblem(1, 20, 4)
	rm := NewRandomMapping(1)
	if rm.Name() != "RM" {
		t.Fatal("name")
	}
	res, err := rm.Allocate(Request{Problem: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckFeasible(res.Allocation); err != nil {
		t.Fatalf("RM infeasible: %v", err)
	}
	if res.DecisionOps <= 0 || len(res.Priority) != 20 {
		t.Fatalf("RM result %+v", res)
	}
	assigned := 0
	for _, a := range res.Allocation {
		if a != core.Unassigned {
			assigned++
		}
	}
	if assigned == 0 {
		t.Fatal("RM assigned nothing")
	}
}

func TestRandomMappingIgnoresImportance(t *testing.T) {
	// Over many draws, RM's captured importance should be near the
	// proportional average, far from the oracle's.
	p := testProblem(2, 25, 3)
	rm := NewRandomMapping(7)
	oracle := NewOracleGreedy()
	oRes, err := oracle.Allocate(Request{Problem: p})
	if err != nil {
		t.Fatal(err)
	}
	var rmSum float64
	const trials = 30
	for i := 0; i < trials; i++ {
		res, err := rm.Allocate(Request{Problem: p})
		if err != nil {
			t.Fatal(err)
		}
		rmSum += p.Objective(res.Allocation)
	}
	rmMean := rmSum / trials
	if !(p.Objective(oRes.Allocation) > rmMean) {
		t.Fatalf("oracle %v should capture more importance than RM mean %v",
			p.Objective(oRes.Allocation), rmMean)
	}
}

func TestDMLBalancedAndFeasible(t *testing.T) {
	p := testProblem(3, 20, 4)
	d := NewDML()
	if d.Name() != "DML" {
		t.Fatal("name")
	}
	res, err := d.Allocate(Request{Problem: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckFeasible(res.Allocation); err != nil {
		t.Fatalf("DML infeasible: %v", err)
	}
	// DML balances load: per-processor time spread should be modest.
	load := make([]float64, len(p.Processors))
	for j, proc := range res.Allocation {
		if proc != core.Unassigned {
			load[proc] += p.Tasks[j].TimeCost
		}
	}
	maxL, minL := slices.Max(load), slices.Min(load)
	if maxL-minL > p.TimeLimit*0.75 {
		t.Fatalf("DML load spread too wide: %v", load)
	}
	// Deterministic.
	res2, err := d.Allocate(Request{Problem: p})
	if err != nil {
		t.Fatal(err)
	}
	for j := range res.Allocation {
		if res.Allocation[j] != res2.Allocation[j] {
			t.Fatal("DML must be deterministic")
		}
	}
}

func TestOracleCapturesTopImportance(t *testing.T) {
	p := testProblem(4, 25, 4)
	oracle := NewOracleGreedy()
	res, err := oracle.Allocate(Request{Problem: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckFeasible(res.Allocation); err != nil {
		t.Fatal(err)
	}
	captured := p.Objective(res.Allocation)
	if captured < 0.8*p.TotalImportance() {
		t.Fatalf("oracle captured %v of %v", captured, p.TotalImportance())
	}
	// Coverage target must also *stop*: with the long tail, some of the 25
	// tasks stay unassigned.
	unassigned := 0
	for _, a := range res.Allocation {
		if a == core.Unassigned {
			unassigned++
		}
	}
	if unassigned == 0 {
		t.Fatal("oracle with coverage target should drop the tail")
	}
}

func TestValidationErrors(t *testing.T) {
	rm := NewRandomMapping(1)
	if _, err := rm.Allocate(Request{}); err == nil {
		t.Fatal("nil problem accepted")
	}
	bad := testProblem(5, 4, 2)
	bad.TimeLimit = 0
	if _, err := rm.Allocate(Request{Problem: bad}); !errors.Is(err, core.ErrBadProblem) {
		t.Fatalf("bad problem err = %v", err)
	}
}

// storeFixture builds a synthetic environment store tied to the problem.
func storeFixture(t *testing.T, p *core.Problem) *core.EnvironmentStore {
	t.Helper()
	store := core.NewEnvironmentStore()
	rng := mathx.NewRand(9)
	caps := make([]float64, len(p.Processors))
	for i, pr := range p.Processors {
		caps[i] = pr.Capacity
	}
	for e := 0; e < 20; e++ {
		imp := make([]float64, len(p.Tasks))
		z := rng.Float64()
		for j := range imp {
			// Environments resemble the "true" importance with noise.
			imp[j] = mathx.Clamp(p.Tasks[j].Importance+rng.NormFloat64()*0.08, 0, 1)
		}
		if err := store.Add(&core.Environment{
			Importance: imp, Capacity: caps, Signature: []float64{z},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// crlFixture trains a small CRL over storeFixture's store.
func crlFixture(t *testing.T, p *core.Problem) *core.CRL {
	t.Helper()
	cfg := core.DefaultCRLConfig()
	cfg.Episodes = 60
	cfg.DQN = rl.DQNConfig{
		Hidden:      []int{32},
		Epsilon:     rl.EpsilonSchedule{Start: 1, End: 0.1, DecaySteps: 400},
		WarmupSteps: 32,
		Seed:        5,
	}
	crl, err := core.NewCRL(p.Clone(), storeFixture(t, p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crl.Train(); err != nil {
		t.Fatal(err)
	}
	return crl
}

func TestCRLAllocator(t *testing.T) {
	p := testProblem(6, 10, 3)
	crl := crlFixture(t, p)
	ca, err := NewCRLAllocator(crl, core.DefaultCRLConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ca.Name() != "CRL" {
		t.Fatal("name")
	}
	res, err := ca.Allocate(Request{Problem: p, Signature: []float64{0.4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckFeasible(res.Allocation); err != nil {
		t.Fatalf("CRL infeasible: %v", err)
	}
	if res.DecisionOps <= 0 || len(res.Priority) != 10 {
		t.Fatalf("CRL result fields: %+v", res)
	}
	if _, err := NewCRLAllocator(nil, core.DefaultCRLConfig()); err == nil {
		t.Fatal("nil model accepted")
	}
}

func TestCRLAllocatorNotReady(t *testing.T) {
	p := testProblem(7, 6, 2)
	store := core.NewEnvironmentStore()
	caps := []float64{1, 1}
	imp := make([]float64, 6)
	if err := store.Add(&core.Environment{
		Importance: imp, Capacity: caps, Signature: []float64{0},
	}); err != nil {
		t.Fatal(err)
	}
	crl, err := core.NewCRL(p.Clone(), store, core.DefaultCRLConfig())
	if err != nil {
		t.Fatal(err)
	}
	ca, err := NewCRLAllocator(crl, core.DefaultCRLConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Allocate(Request{Problem: p, Signature: []float64{0}}); !errors.Is(err, ErrNotReady) {
		t.Fatalf("untrained err = %v", err)
	}
}

func TestLocalModel(t *testing.T) {
	lm := NewLocalModel(1)
	if lm.Fitted() {
		t.Fatal("fresh model claims fitted")
	}
	if _, err := lm.Score(make([]float64, features.Dim)); !errors.Is(err, ErrNotReady) {
		t.Fatalf("unfitted score err = %v", err)
	}
	if err := lm.Fit(nil); err == nil {
		t.Fatal("empty fit accepted")
	}
	// Learn "feature 0 > 0 → selected".
	rng := mathx.NewRand(2)
	var samples []LocalSample
	for i := 0; i < 200; i++ {
		v := make([]float64, features.Dim)
		for k := range v {
			v[k] = rng.NormFloat64()
		}
		label := -1.0
		if v[0] > 0 {
			label = 1
		}
		samples = append(samples, LocalSample{Features: v, Selected: label})
	}
	if err := lm.Fit(samples); err != nil {
		t.Fatal(err)
	}
	pos := make([]float64, features.Dim)
	pos[0] = 2
	neg := make([]float64, features.Dim)
	neg[0] = -2
	sp, err := lm.Score(pos)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := lm.Score(neg)
	if err != nil {
		t.Fatal(err)
	}
	if !(sp > 0.5 && sn < 0.5) {
		t.Fatalf("local model scores: pos=%v neg=%v", sp, sn)
	}
}

func TestSamplesFromDecision(t *testing.T) {
	vecs := [][]float64{{1}, {2}, {3}}
	allocation := core.Allocation{0, core.Unassigned, 1}
	samples := SamplesFromDecision(vecs, allocation)
	if len(samples) != 3 {
		t.Fatalf("samples = %d", len(samples))
	}
	if samples[0].Selected != 1 || samples[1].Selected != -1 || samples[2].Selected != 1 {
		t.Fatalf("labels = %+v", samples)
	}
}

func TestDCTAEndToEnd(t *testing.T) {
	p := testProblem(8, 10, 3)
	store := storeFixture(t, p)
	// Local model trained from oracle decisions with informative features:
	// feature 0 encodes the task's true importance.
	mkFeatures := func(noise float64, seed int64) [][]float64 {
		rng := mathx.NewRand(seed)
		out := make([][]float64, len(p.Tasks))
		for j := range out {
			v := make([]float64, features.Dim)
			v[0] = p.Tasks[j].Importance + rng.NormFloat64()*noise
			for k := 1; k < features.Dim; k++ {
				v[k] = rng.NormFloat64() * 0.1
			}
			out[j] = v
		}
		return out
	}
	oracle := NewOracleGreedy()
	var samples []LocalSample
	for s := int64(0); s < 10; s++ {
		oRes, err := oracle.Allocate(Request{Problem: p})
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, SamplesFromDecision(mkFeatures(0.05, s), oRes.Allocation)...)
	}
	local := NewLocalModel(3)
	if err := local.Fit(samples); err != nil {
		t.Fatal(err)
	}
	d, err := NewDCTA(store, core.DefaultCRLConfig(), local)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "DCTA" {
		t.Fatal("name")
	}
	req := Request{
		Problem:   p,
		Signature: []float64{0.5},
		Features:  mkFeatures(0.05, 99),
	}
	res, err := d.Allocate(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckFeasible(res.Allocation); err != nil {
		t.Fatalf("DCTA infeasible: %v", err)
	}
	captured := p.Objective(res.Allocation)
	if captured < 0.6*p.TotalImportance() {
		t.Fatalf("DCTA captured %v of %v", captured, p.TotalImportance())
	}
	// DCTA must drop tail tasks (that is its processing-time advantage).
	unassigned := 0
	for _, a := range res.Allocation {
		if a == core.Unassigned {
			unassigned++
		}
	}
	if unassigned == 0 {
		t.Fatal("DCTA should drop unimportant tasks")
	}
	// Feature count mismatch errors.
	bad := req
	bad.Features = bad.Features[:3]
	if _, err := d.Allocate(bad); err == nil {
		t.Fatal("feature mismatch accepted")
	}
	// Constructor validation.
	if _, err := NewDCTA(nil, core.DefaultCRLConfig(), local); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := NewDCTA(store, core.DefaultCRLConfig(), nil); err == nil {
		t.Fatal("nil local accepted")
	}
}

func TestDCTAWeights(t *testing.T) {
	p := testProblem(9, 8, 2)
	store := storeFixture(t, p)
	local := NewLocalModel(1)
	rng := mathx.NewRand(4)
	var samples []LocalSample
	for i := 0; i < 100; i++ {
		v := make([]float64, features.Dim)
		for k := range v {
			v[k] = rng.NormFloat64()
		}
		label := -1.0
		if v[1] > 0 {
			label = 1
		}
		samples = append(samples, LocalSample{Features: v, Selected: label})
	}
	if err := local.Fit(samples); err != nil {
		t.Fatal(err)
	}
	d, err := NewDCTA(store, core.DefaultCRLConfig(), local)
	if err != nil {
		t.Fatal(err)
	}
	// Pure-local weights must still produce a feasible allocation.
	d.W1, d.W2 = 0, 1
	feats := make([][]float64, len(p.Tasks))
	for j := range feats {
		v := make([]float64, features.Dim)
		v[1] = math.Sin(float64(j))
		feats[j] = v
	}
	req := Request{Problem: p, Signature: []float64{0.2}, Features: feats}
	res, err := d.Allocate(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckFeasible(res.Allocation); err != nil {
		t.Fatal(err)
	}
	// The decision is charged kNN, SVM margins and packing — no Q evaluation.
	_, packOps := PackByScoreInto(p, res.Priority, d.CoverageTarget, nil, &PackScratch{})
	if want := float64(len(req.Signature)+len(p.Tasks)*features.Dim) + packOps; res.DecisionOps != want {
		t.Errorf("DecisionOps %v, want %v", res.DecisionOps, want)
	}
}

// TestDecide pins Decide to its parts: the kNN definition, Eq. 6's mix only
// when a local model is passed, the pack and the captured defined
// importance — through one workspace reused across both shapes, so the
// unmixed answer's scores (the defined importance itself) never leak into a
// later mixed one. Rows narrower than the model's fail with ErrBadShape.
func TestDecide(t *testing.T) {
	p := testProblem(12, 10, 3)
	store := storeFixture(t, p)
	policy := core.DefaultCRLConfig()
	rng := mathx.NewRand(13)
	feats := make([][]float64, len(p.Tasks))
	var samples []LocalSample
	for j := range feats {
		v := make([]float64, features.Dim)
		for k := range v {
			v[k] = rng.NormFloat64()
		}
		feats[j] = v
		samples = append(samples, LocalSample{Features: v, Selected: math.Copysign(1, v[0])})
	}
	local := NewLocalModel(14)
	if err := local.Fit(samples); err != nil {
		t.Fatal(err)
	}
	sig := []float64{0.3}
	var env core.Environment
	var knn core.KNNScratch
	if err := policy.DefineEnvironmentInto(store, sig, &env, &knn); err != nil {
		t.Fatal(err)
	}
	mixed, _, err := CombineScoresInto(local, env.Importance, feats, 0.5, 0.5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, d *Decision, scores []float64, target float64) {
		t.Helper()
		plan, ops := PackByScoreInto(p, scores, target, nil, &PackScratch{})
		var predicted float64
		for j, proc := range plan {
			if proc != core.Unassigned {
				predicted += env.Importance[j]
			}
		}
		for j := range scores {
			if math.Float64bits(d.Scores[j]) != math.Float64bits(scores[j]) ||
				math.Float64bits(d.Env.Importance[j]) != math.Float64bits(env.Importance[j]) {
				t.Fatalf("%s: task %d scored %v (defined %v), want %v (defined %v)",
					name, j, d.Scores[j], d.Env.Importance[j], scores[j], env.Importance[j])
			}
			if d.Plan[j] != plan[j] {
				t.Fatalf("%s: task %d on %d, want %d", name, j, d.Plan[j], plan[j])
			}
		}
		if math.Float64bits(d.Predicted) != math.Float64bits(predicted) || d.PackOps != ops {
			t.Fatalf("%s: predicted %v ops %v, want %v and %v", name, d.Predicted, d.PackOps, predicted, ops)
		}
	}
	var d Decision
	for round := 0; round < 2; round++ {
		if err := Decide(p, store, policy, sig, nil, nil, 0.5, 0.5, 1.0, &d); err != nil {
			t.Fatal(err)
		}
		check("without a local term", &d, env.Importance, 1.0)
		if err := Decide(p, store, policy, sig, local, feats, 0.5, 0.5, 0.9, &d); err != nil {
			t.Fatal(err)
		}
		check("with a local term", &d, mixed, 0.9)
	}
	narrow := make([][]float64, len(feats))
	for j, row := range feats {
		narrow[j] = row[:features.Dim-1]
	}
	if err := Decide(p, store, policy, sig, local, narrow, 0.5, 0.5, 0.9, &d); !errors.Is(err, mlearn.ErrBadShape) {
		t.Fatalf("narrow rows: err = %v, want mlearn.ErrBadShape", err)
	}
}
