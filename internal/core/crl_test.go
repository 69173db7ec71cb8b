package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
	"repro/internal/rl"
)

// fixtureImportance is the synthetic context→importance law shared by the
// store fixtures: low z favours low-index tasks, high z the high-index ones.
func fixtureImportance(n int, z float64) []float64 {
	imp := make([]float64, n)
	center := z * float64(n-1)
	for j := range imp {
		d := math.Abs(float64(j) - center)
		imp[j] = math.Exp(-d * d / 4)
	}
	return imp
}

// storeFixture builds a problem template plus a store of environments whose
// importance depends on a 1-D signature: signature z makes the "z-ish" half
// of the tasks important.
func storeFixture(t *testing.T, n, m, entries int) (*Problem, *EnvironmentStore) {
	t.Helper()
	rng := mathx.NewRand(42)
	p := &Problem{TimeLimit: 3}
	for j := 0; j < n; j++ {
		p.Tasks = append(p.Tasks, TaskSpec{
			ID: j, TimeCost: 1, Resource: 0.5,
		})
	}
	for i := 0; i < m; i++ {
		p.Processors = append(p.Processors, Processor{ID: i, Capacity: 1, SpeedFactor: 1})
	}
	store := NewEnvironmentStore()
	for e := 0; e < entries; e++ {
		z := rng.Float64() // scenario knob in [0,1]
		imp := fixtureImportance(n, z)
		caps := make([]float64, m)
		for i := range caps {
			caps[i] = 1
		}
		if err := store.Add(&Environment{
			Importance: imp, Capacity: caps, Signature: []float64{z},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return p, store
}

func TestEnvironmentStoreBasics(t *testing.T) {
	store := NewEnvironmentStore()
	if _, err := store.Define([]float64{1}); !errors.Is(err, ErrEmptyStore) {
		t.Fatalf("empty store err = %v", err)
	}
	if err := store.Add(nil); err == nil {
		t.Fatal("nil env accepted")
	}
	e1 := &Environment{Importance: []float64{1}, Capacity: []float64{1}, Signature: []float64{0}}
	e2 := &Environment{Importance: []float64{0.5}, Capacity: []float64{1}, Signature: []float64{10}}
	if err := store.Add(e1); err != nil {
		t.Fatal(err)
	}
	if err := store.Add(e2); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 2 {
		t.Fatalf("Len = %d", store.Len())
	}
	// Dimension mismatch rejected.
	if err := store.Add(&Environment{
		Importance: []float64{1, 2}, Capacity: []float64{1}, Signature: []float64{0},
	}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	got, err := store.Define([]float64{9})
	if err != nil {
		t.Fatal(err)
	}
	if got != e2 {
		t.Fatal("Define picked the wrong neighbor")
	}
	if _, err := store.Define([]float64{1, 2}); err == nil {
		t.Fatal("bad signature length accepted")
	}
	nearest, err := store.Nearest([]float64{0}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(nearest) != 2 || nearest[0] != e1 {
		t.Fatalf("Nearest = %v", nearest)
	}
}

func TestDefineBlended(t *testing.T) {
	store := NewEnvironmentStore()
	mk := func(imp, z float64) *Environment {
		return &Environment{
			Importance: []float64{imp}, Capacity: []float64{1}, Signature: []float64{z},
		}
	}
	if err := store.Add(mk(0.0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := store.Add(mk(1.0, 1)); err != nil {
		t.Fatal(err)
	}
	blend, err := store.DefineBlended([]float64{0.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if blend.Importance[0] <= 0.2 || blend.Importance[0] >= 0.8 {
		t.Fatalf("blend at midpoint = %v, want interior mix", blend.Importance[0])
	}
	// k=1 degenerates to nearest.
	one, err := store.DefineBlended([]float64{0.9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.Importance[0] != 1.0 {
		t.Fatalf("k=1 blend = %v, want nearest (1.0)", one.Importance[0])
	}
}

func crlFixture(t *testing.T) *CRL {
	t.Helper()
	p, store := storeFixture(t, 6, 2, 30)
	cfg := DefaultCRLConfig()
	cfg.Episodes = 120
	cfg.DQN = rl.DQNConfig{
		Hidden:      []int{32},
		Epsilon:     rl.EpsilonSchedule{Start: 1, End: 0.05, DecaySteps: 600},
		WarmupSteps: 32,
		Seed:        7,
	}
	crl, err := NewCRL(p, store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return crl
}

func TestCRLTrainAndPredict(t *testing.T) {
	crl := crlFixture(t)
	if _, _, err := crl.Predict([]float64{0.5}); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("untrained predict err = %v", err)
	}
	res, err := crl.Train()
	if err != nil {
		t.Fatal(err)
	}
	if res.Episodes != 120 || res.TotalSteps == 0 {
		t.Fatalf("train result %+v", res)
	}
	if !crl.Trained() {
		t.Fatal("Trained() false after Train")
	}
	alloc, env, err := crl.Predict([]float64{0.2})
	if err != nil {
		t.Fatal(err)
	}
	if env == nil || len(alloc) != 6 {
		t.Fatalf("predict outputs: %v %v", alloc, env)
	}
	// Prediction must be feasible for the realized problem.
	prob, err := crl.problemFor(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := prob.CheckFeasible(alloc); err != nil {
		t.Fatalf("CRL allocation infeasible: %v", err)
	}
}

func TestCRLBeatsRandomAllocation(t *testing.T) {
	crl := crlFixture(t)
	if _, err := crl.Train(); err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRand(3)
	var crlSum, rndSum float64
	queries := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	for _, z := range queries {
		alloc, env, err := crl.Predict([]float64{z})
		if err != nil {
			t.Fatal(err)
		}
		prob, err := crl.problemFor(env)
		if err != nil {
			t.Fatal(err)
		}
		crlSum += prob.Objective(alloc)
		// Random baseline on the same problem: random feasible rollout.
		ae, err := NewAllocEnv(prob, nil)
		if err != nil {
			t.Fatal(err)
		}
		ae.Reset()
		for {
			valid := ae.ValidActions()
			if len(valid) == 0 {
				break
			}
			if _, _, done, err := ae.Step(valid[rng.Intn(len(valid))]); err != nil {
				t.Fatal(err)
			} else if done {
				break
			}
		}
		rndSum += prob.Objective(ae.Allocation())
	}
	if !(crlSum > rndSum) {
		t.Fatalf("CRL %.3f should beat random %.3f on defined environments", crlSum, rndSum)
	}
}

func TestNewCRLValidation(t *testing.T) {
	p, store := storeFixture(t, 4, 2, 5)
	bad := p.Clone()
	bad.TimeLimit = 0
	if _, err := NewCRL(bad, store, DefaultCRLConfig()); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("bad template err = %v", err)
	}
	if _, err := NewCRL(p, NewEnvironmentStore(), DefaultCRLConfig()); !errors.Is(err, ErrEmptyStore) {
		t.Fatalf("empty store err = %v", err)
	}
	// Mismatched environment dimensionality surfaces at problemFor time.
	crl, err := NewCRL(p, store, DefaultCRLConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crl.problemFor(&Environment{
		Importance: []float64{1}, Capacity: []float64{1},
	}); err == nil {
		t.Fatal("mismatched environment accepted")
	}
}

func TestCRLPredictWithEnvironment(t *testing.T) {
	crl := crlFixture(t)
	if _, err := crl.Train(); err != nil {
		t.Fatal(err)
	}
	imp := []float64{1, 0, 0, 0, 0, 1}
	env := &Environment{Importance: imp, Capacity: []float64{1, 1}, Signature: []float64{0.5}}
	alloc, err := crl.PredictWithEnvironment(env)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := crl.problemFor(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := prob.CheckFeasible(alloc); err != nil {
		t.Fatal(err)
	}
}

func TestCRLPersistence(t *testing.T) {
	crl := crlFixture(t)
	if _, err := crl.Train(); err != nil {
		t.Fatal(err)
	}
	data, err := crl.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := LoadCRL(data, crl.store)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Trained() {
		t.Fatal("restored model should be trained")
	}
	// The restored policy must reproduce the original's predictions.
	for _, z := range []float64{0.1, 0.5, 0.9} {
		a1, _, err := crl.Predict([]float64{z})
		if err != nil {
			t.Fatal(err)
		}
		a2, _, err := restored.Predict([]float64{z})
		if err != nil {
			t.Fatal(err)
		}
		for j := range a1 {
			if a1[j] != a2[j] {
				t.Fatalf("z=%v: restored allocation differs at task %d", z, j)
			}
		}
	}
	// Restored onto the deployment's template, the model reads that template.
	shared, err := LoadCRLOn(crl.template, data, crl.store)
	if err != nil {
		t.Fatal(err)
	}
	if shared.template != crl.template {
		t.Fatal("LoadCRLOn kept the snapshot's own template")
	}
	other := crl.template.Clone()
	other.TimeLimit++
	if _, err := LoadCRLOn(other, data, crl.store); err == nil {
		t.Fatal("snapshot restored onto a different template")
	}
	// Error paths.
	if _, err := LoadCRL(data, NewEnvironmentStore()); !errors.Is(err, ErrEmptyStore) {
		t.Fatalf("empty store err = %v", err)
	}
	if _, err := LoadCRL([]byte("not json"), crl.store); err == nil {
		t.Fatal("bad json accepted")
	}
	if _, err := LoadCRL([]byte(`{"trained":true}`), crl.store); err == nil {
		t.Fatal("missing template accepted")
	}
}

// TestCRLConvergesTowardOptimal is the §III-D convergence analysis: on a
// small, FIXED environment (stationary MDP), a well-trained policy's greedy
// allocation should approach the branch-and-bound optimum.
func TestCRLConvergesTowardOptimal(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence training is slow")
	}
	// 5 tasks, 2 processors, a single environment in the store.
	p := &Problem{TimeLimit: 2}
	imp := []float64{0.9, 0.7, 0.5, 0.1, 0.05}
	for j := 0; j < 5; j++ {
		p.Tasks = append(p.Tasks, TaskSpec{ID: j, TimeCost: 1, Resource: 0.5})
	}
	for i := 0; i < 2; i++ {
		p.Processors = append(p.Processors, Processor{ID: i, Capacity: 1, SpeedFactor: 1})
	}
	store := NewEnvironmentStore()
	if err := store.Add(&Environment{
		Importance: imp, Capacity: []float64{1, 1}, Signature: []float64{0},
	}); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultCRLConfig()
	cfg.Episodes = 400
	cfg.K = 1
	cfg.Blend = false
	cfg.DQN = rl.DQNConfig{
		Hidden:      []int{32},
		Epsilon:     rl.EpsilonSchedule{Start: 1, End: 0.02, DecaySteps: 1500},
		WarmupSteps: 32,
		Seed:        11,
	}
	crl, err := NewCRL(p, store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crl.Train(); err != nil {
		t.Fatal(err)
	}
	allocation, env, err := crl.Predict([]float64{0})
	if err != nil {
		t.Fatal(err)
	}
	realized, err := crl.problemFor(env)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := realized.SolveExact()
	if err != nil {
		t.Fatal(err)
	}
	got, want := realized.Objective(allocation), realized.Objective(exact)
	if want <= 0 {
		t.Fatal("degenerate optimum")
	}
	if ratio := got / want; ratio < 0.9 {
		t.Fatalf("trained policy captures %.0f%% of optimum (%v vs %v)",
			ratio*100, got, want)
	}
}

// Property: any sequence of valid actions keeps the allocation feasible and
// the episode terminates.
func TestAllocEnvFeasibilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := mathx.NewRand(seed%1000 + 1)
		n := 3 + rng.Intn(8)
		m := 1 + rng.Intn(3)
		p := &Problem{TimeLimit: 1 + rng.Float64()*3}
		for j := 0; j < n; j++ {
			p.Tasks = append(p.Tasks, TaskSpec{
				ID:         j,
				Importance: rng.Float64(),
				TimeCost:   0.2 + rng.Float64(),
				Resource:   rng.Float64(),
			})
		}
		for i := 0; i < m; i++ {
			p.Processors = append(p.Processors, Processor{
				ID: i, Capacity: 0.5 + rng.Float64()*2, SpeedFactor: 0.5 + rng.Float64(),
			})
		}
		env, err := NewAllocEnv(p, nil)
		if err != nil {
			return false
		}
		env.Reset()
		for steps := 0; steps < n*m+m+2; steps++ {
			valid := env.ValidActions()
			if len(valid) == 0 {
				break
			}
			if _, _, done, err := env.Step(valid[rng.Intn(len(valid))]); err != nil {
				return false
			} else if done {
				break
			}
		}
		return p.CheckFeasible(env.Allocation()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
