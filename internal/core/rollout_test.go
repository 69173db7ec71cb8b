package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/mathx"
	"repro/internal/rl"
)

// trainPaperShape builds and trains a CRL at the serving shape — 50 tasks × 9
// processors, the default [64,64] DQN — over a store whose importance vectors
// have the bench world's long tail: a handful of nonzero entries, the rest
// exactly zero. fits=false makes every task cost more time than any processor
// has, so no assignment is ever valid.
func trainPaperShape(seed int64, episodes int, fits bool) (*CRL, error) {
	crl, err := newPaperShape(seed, episodes, fits, rl.DQNConfig{WarmupSteps: 32, BatchSize: 8, Seed: seed + 1})
	if err != nil {
		return nil, err
	}
	if _, err := crl.Train(); err != nil {
		return nil, err
	}
	return crl, nil
}

// newPaperShape is trainPaperShape's untrained model, with the given agent
// configuration (Hidden defaults to [64,64]).
func newPaperShape(seed int64, episodes int, fits bool, dqn rl.DQNConfig) (*CRL, error) {
	const n, m = 50, 9
	rng := mathx.NewRand(seed)
	p := &Problem{TimeLimit: 4}
	for j := 0; j < n; j++ {
		cost := 0.5 + rng.Float64()
		if !fits {
			cost += p.TimeLimit
		}
		p.Tasks = append(p.Tasks, TaskSpec{ID: j, TimeCost: cost, Resource: 0.2 + rng.Float64()*0.6})
	}
	for i := 0; i < m; i++ {
		p.Processors = append(p.Processors, Processor{
			ID: i, Capacity: 0.8 + rng.Float64(), SpeedFactor: 0.5 + rng.Float64(),
		})
	}
	store := NewEnvironmentStore()
	for e := 0; e < 24; e++ {
		caps := make([]float64, m)
		for i := range caps {
			caps[i] = p.Processors[i].Capacity
		}
		if err := store.Add(&Environment{
			Importance: longTailImportance(rng, n),
			Capacity:   caps,
			Signature:  []float64{rng.Float64(), rng.Float64()},
		}); err != nil {
			return nil, err
		}
	}
	cfg := DefaultCRLConfig()
	cfg.Episodes = episodes
	cfg.Seed = seed
	cfg.DQN = dqn
	return NewCRL(p, store, cfg)
}

var (
	paperOnce sync.Once
	paperCRL  *CRL
	paperErr  error
)

// paperShapePolicy returns one serving-shape policy, trained once per test
// binary (a second at this size per training run is too much to repeat in
// every test, ten times over under -race). Tests share it read-only.
func paperShapePolicy(t testing.TB) *CRL {
	t.Helper()
	paperOnce.Do(func() { paperCRL, paperErr = trainPaperShape(91, 30, true) })
	if paperErr != nil {
		t.Fatal(paperErr)
	}
	return paperCRL
}

// paperShapeCopy returns a private copy of the serving-shape policy, restored
// from its snapshot, for a test that rewrites the weights.
func paperShapeCopy(t testing.TB) *CRL {
	t.Helper()
	data, err := paperShapePolicy(t).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	crl, err := LoadCRL(data, paperCRL.store)
	if err != nil {
		t.Fatal(err)
	}
	return crl
}

// longTailImportance draws 6–9 nonzero importances out of n.
func longTailImportance(rng *rand.Rand, n int) []float64 {
	imp := make([]float64, n)
	for _, j := range rng.Perm(n)[:6+rng.Intn(4)] {
		imp[j] = 0.05 + 0.95*rng.Float64()
	}
	return imp
}

// randomEnvironment defines an environment for a random signature of the
// model's store, the way the serving path does.
func randomEnvironment(t testing.TB, crl *CRL, rng *rand.Rand) *Environment {
	t.Helper()
	sig := make([]float64, len(crl.store.All()[0].Signature))
	for i := range sig {
		sig[i] = rng.Float64()
	}
	env := &Environment{}
	var scratch KNNScratch
	if err := crl.DefineEnvironmentInto(sig, env, &scratch); err != nil {
		t.Fatal(err)
	}
	return env
}

// checkAgainstReference rolls env out three ways and requires one answer: the
// reference (PredictWithEnvironment: generic rl.RunGreedy, full forward per
// step), PredictBatchInto, and the same incremental rollout driven step by
// step so that the Q row behind every decision can be compared, at every
// visited state, with the full forward's. It returns the worst relative |ΔQ|.
func checkAgainstReference(t *testing.T, crl *CRL, env *Environment) float64 {
	t.Helper()
	want, err := crl.PredictWithEnvironment(env)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Allocation, 1)
	if err := crl.PredictBatchInto([]*Environment{env}, out); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out[0], want) {
		t.Fatalf("incremental rollout %v, reference %v", out[0], want)
	}

	s := &crl.rollout
	net := crl.agent.Online()
	if err := s.begin(net, env.Importance); err != nil {
		t.Fatal(err)
	}
	state := mathx.NewMatrix(1, s.lane.StateSize())
	worst := 0.0
	for step := 0; !s.lane.Done(); step++ {
		if step > s.lane.N()+s.lane.M() {
			t.Fatal("rollout exceeded the N+M+1 step bound")
		}
		s.lane.StateInto(state.Row(0))
		valid := s.lane.ValidActions()
		if err := s.step(net); err != nil {
			t.Fatal(err)
		}
		full, err := crl.agent.QValuesBatch(state)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range valid {
			ref := full.At(0, a)
			if d := math.Abs(s.q[a]-ref) / math.Max(1, math.Abs(ref)); d > worst {
				worst = d
			}
		}
	}
	if got := s.lane.Allocation(); !slices.Equal(got, want) {
		t.Fatalf("stepped rollout %v, reference %v", got, want)
	}
	return worst
}

// TestRolloutMatchesReference holds the incremental rollout to the full
// forward on 30 randomized worlds and at the serving shape: the same
// allocation for every environment, and Q rows within 1e-9 (relative) of
// QValuesBatch at every visited state — the two accumulate layer 0 in a
// different order, so the last ulp may differ, never more.
func TestRolloutMatchesReference(t *testing.T) {
	worst := 0.0
	for world := 0; world < 30; world++ {
		rng := mathx.NewRand(int64(4000 + 53*world))
		crl := randomCRLFixture(t, rng)
		for i := 0; i < 6; i++ {
			env := &Environment{}
			var scratch KNNScratch
			if err := crl.DefineEnvironmentInto([]float64{rng.Float64()}, env, &scratch); err != nil {
				t.Fatal(err)
			}
			worst = math.Max(worst, checkAgainstReference(t, crl, env))
		}
	}
	paper := paperShapePolicy(t)
	rng := mathx.NewRand(78)
	for i := 0; i < 12; i++ {
		worst = math.Max(worst, checkAgainstReference(t, paper, randomEnvironment(t, paper, rng)))
	}
	if worst > 1e-9 {
		t.Fatalf("max relative |ΔQ| = %g, want ≤ 1e-9", worst)
	}
}

// TestRolloutScratchDoesNotBleed serves B=4, then B=1, then B=3 different
// environments through the model's own workspace; every answer must equal
// what a fresh workspace gives that environment alone. Sums, Q rows and open
// sets left behind by an earlier environment must never reach a later one.
func TestRolloutScratchDoesNotBleed(t *testing.T) {
	crl := paperShapePolicy(t)
	rng := mathx.NewRand(92)
	for _, b := range []int{4, 1, 3} {
		envs := make([]*Environment, b)
		for i := range envs {
			envs[i] = randomEnvironment(t, crl, rng)
		}
		out := make([]Allocation, b)
		if err := crl.PredictBatchInto(envs, out); err != nil {
			t.Fatal(err)
		}
		for i, env := range envs {
			solo, err := crl.RolloutInto(&Rollout{}, env, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(out[i], solo) {
				t.Fatalf("batch of %d, slot %d: reused workspace %v, fresh workspace %v", b, i, out[i], solo)
			}
		}
	}
}

// TestConcurrentRolloutsShareOnePolicy: 8 goroutines roll one trained
// serving-shape policy at once, each through its own Rollout, and every
// allocation is bit-equal to the reference rollout's. Under -race this is the
// proof that RolloutInto writes nothing the model owns — what lets a serving
// layer answer every request for a cluster from one resident policy.
func TestConcurrentRolloutsShareOnePolicy(t *testing.T) {
	crl := paperShapePolicy(t)
	rng := mathx.NewRand(121)
	envs := make([]*Environment, 16)
	want := make([]Allocation, len(envs))
	for i := range envs {
		envs[i] = randomEnvironment(t, crl, rng)
		var err error
		if want[i], err = crl.PredictWithEnvironment(envs[i]); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var r Rollout
			var out Allocation
			for k := 0; k < 3*len(envs); k++ {
				i := (g + k) % len(envs)
				var err error
				if out, err = crl.RolloutInto(&r, envs[i], out); err != nil {
					errs <- err
					return
				}
				if !slices.Equal(out, want[i]) {
					errs <- fmt.Errorf("goroutine %d, environment %d: %v, reference %v", g, i, out, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRolloutTailEvaluations counts the network tails a rollout pays for: one
// for the initial state and one per assignment (a final assignment that ends
// the episode needs none) — skips reuse the cached Q row. A world in which no
// task fits any processor costs exactly one.
func TestRolloutTailEvaluations(t *testing.T) {
	crl := paperShapePolicy(t)
	rng := mathx.NewRand(102)
	var r Rollout
	assignments := 0
	for i := 0; i < 5; i++ {
		alloc, err := crl.RolloutInto(&r, randomEnvironment(t, crl, rng), nil)
		if err != nil {
			t.Fatal(err)
		}
		assigned := 0
		for _, p := range alloc {
			if p != Unassigned {
				assigned++
			}
		}
		assignments += assigned
		want := assigned
		if assigned < len(alloc) {
			want++ // the episode ended on a skip, so every assignment was followed by a tail
		}
		if r.tails != want {
			t.Fatalf("environment %d: %d tail evaluations, want %d (assignments + 1)", i, r.tails, want)
		}
	}
	if assignments == 0 {
		t.Fatal("fixture policy never assigned a task; the count above checked nothing")
	}

	tight, err := trainPaperShape(103, 12, false)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := tight.RolloutInto(&r, randomEnvironment(t, tight, rng), nil)
	if err != nil {
		t.Fatal(err)
	}
	for j, p := range alloc {
		if p != Unassigned {
			t.Fatalf("task %d assigned to %d in a world where nothing fits", j, p)
		}
	}
	if r.tails != 1 {
		t.Fatalf("%d tail evaluations where nothing fits, want exactly 1", r.tails)
	}
}

// TestRolloutDegenerateInputs: an all-zero importance vector (the hoisted
// sums are exactly zero) and a network whose first hidden layer is dead (Q is
// the same row in every state) must roll out without error to the reference's
// plan.
func TestRolloutDegenerateInputs(t *testing.T) {
	crl := paperShapeCopy(t)
	zero := &Environment{
		Importance: make([]float64, len(crl.template.Tasks)),
		Capacity:   crl.store.All()[0].Capacity,
	}
	checkAgainstReference(t, crl, zero)
	if err := crl.rollout.begin(crl.agent.Online(), zero.Importance); err != nil {
		t.Fatal(err)
	}
	for o, v := range crl.rollout.pre {
		if v != 0 {
			t.Fatalf("hoisted sum %d is %v for an all-zero environment", o, v)
		}
	}

	// Kill layer 0: a large negative bias on every unit.
	var snap struct {
		Config  json.RawMessage `json:"config"`
		Weights [][]float64     `json:"weights"`
		Biases  [][]float64     `json:"biases"`
	}
	policy, err := crl.agent.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(policy, &snap); err != nil {
		t.Fatal(err)
	}
	for o := range snap.Biases[0] {
		snap.Biases[0][o] = -1e6
	}
	if policy, err = json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
	if err := crl.agent.UnmarshalPolicy(policy); err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRand(112)
	first := append([]float64(nil), constantQRow(t, crl, randomEnvironment(t, crl, rng))...)
	for i := 0; i < 4; i++ {
		env := randomEnvironment(t, crl, rng)
		if worst := checkAgainstReference(t, crl, env); worst != 0 {
			t.Fatalf("dead first layer: Q differs from the full forward by %g", worst)
		}
		for a, v := range constantQRow(t, crl, env) {
			if v != first[a] {
				t.Fatalf("dead first layer: Q[%d] moved between environments (%v vs %v)", a, v, first[a])
			}
		}
	}
}

// constantQRow returns the full Q row at env's initial state.
func constantQRow(t *testing.T, crl *CRL, env *Environment) []float64 {
	t.Helper()
	s := &crl.rollout
	if err := s.begin(crl.agent.Online(), env.Importance); err != nil {
		t.Fatal(err)
	}
	state := mathx.NewMatrix(1, s.lane.StateSize())
	s.lane.StateInto(state.Row(0))
	q, err := crl.agent.QValuesBatch(state)
	if err != nil {
		t.Fatal(err)
	}
	return q.Row(0)
}

// TestAllocEnvCountsUnassigned pins the counter behind episode termination to
// the assignment vector it summarizes, through assignments, skips and resets.
func TestAllocEnvCountsUnassigned(t *testing.T) {
	p, _ := storeFixture(t, 5, 2, 3)
	env, err := NewAllocEnv(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		open := 0
		for _, a := range env.assigned {
			if a == Unassigned {
				open++
			}
		}
		if env.unassigned != open {
			t.Fatalf("%s: counter %d, %d tasks actually unassigned", when, env.unassigned, open)
		}
		if got := env.OpenActionsInto(nil); len(got) != open+1 || got[open] != env.SkipAction() {
			t.Fatalf("%s: open actions %v for %d unassigned tasks", when, got, open)
		}
	}
	check("fresh")
	rng := mathx.NewRand(3)
	for episode := 0; episode < 4; episode++ {
		for !env.Done() {
			valid := env.ValidActions()
			if _, err := env.Apply(valid[rng.Intn(len(valid))]); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("episode %d", episode))
		}
		if err := env.Reinit([]float64{1, 0.5, 0, 0.25, 1}); err != nil {
			t.Fatal(err)
		}
		check("after Reinit")
	}
}
