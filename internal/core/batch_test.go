package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mathx"
	"repro/internal/rl"
)

// randomCRLFixture builds a randomized template/store pair (task count,
// processor count, store size and contents all drawn from rng) and trains a
// small CRL on it. Batch equivalence must hold for every problem shape, not
// just the shared fixture's.
func randomCRLFixture(t *testing.T, rng *rand.Rand) *CRL {
	t.Helper()
	n := 4 + rng.Intn(6) // tasks
	m := 2 + rng.Intn(3) // processors
	entries := 8 + rng.Intn(24)
	p := &Problem{TimeLimit: 2 + rng.Float64()*2}
	for j := 0; j < n; j++ {
		p.Tasks = append(p.Tasks, TaskSpec{
			ID: j, TimeCost: 0.5 + rng.Float64(), Resource: 0.2 + rng.Float64()*0.6,
		})
	}
	for i := 0; i < m; i++ {
		p.Processors = append(p.Processors, Processor{
			ID: i, Capacity: 0.8 + rng.Float64(), SpeedFactor: 0.5 + rng.Float64(),
		})
	}
	store := NewEnvironmentStore()
	for e := 0; e < entries; e++ {
		z := rng.Float64()
		caps := make([]float64, m)
		for i := range caps {
			caps[i] = 0.8 + rng.Float64()
		}
		if err := store.Add(&Environment{
			Importance: fixtureImportance(n, z),
			Capacity:   caps,
			Signature:  []float64{z},
		}); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultCRLConfig()
	cfg.Episodes = 40
	cfg.DQN = rl.DQNConfig{
		Hidden:      []int{24},
		Epsilon:     rl.EpsilonSchedule{Start: 1, End: 0.05, DecaySteps: 200},
		WarmupSteps: 16,
		Seed:        rng.Int63n(1 << 30),
	}
	crl, err := NewCRL(p, store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crl.Train(); err != nil {
		t.Fatal(err)
	}
	return crl
}

// TestPredictBatchMatchesSequential: rolling B environments through one
// PredictBatchInto call returns exactly — bitwise — the allocations of B
// separate single-environment rollouts, for batch sizes up to 32. If this
// breaks, what a workspace served before leaks into later answers.
func TestPredictBatchMatchesSequential(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("world%d", trial), func(t *testing.T) {
			rng := mathx.NewRand(int64(1000 + 37*trial))
			crl := randomCRLFixture(t, rng)
			// A second workspace answers the solo rollouts, so agreement
			// proves batch composition is invisible — not just that one
			// workspace is self-consistent.
			var solo Rollout
			var scratch KNNScratch
			for _, b := range []int{1, 2, 3, 4, 7, 8, 13, 16, 27, 32} {
				envs := make([]*Environment, b)
				for i := range envs {
					env := &Environment{}
					if err := crl.DefineEnvironmentInto(
						[]float64{rng.Float64()}, env, &scratch); err != nil {
						t.Fatal(err)
					}
					envs[i] = env
				}
				batched := make([]Allocation, b)
				if err := crl.PredictBatchInto(envs, batched); err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
				for i := range envs {
					one, err := crl.RolloutInto(&solo, envs[i], nil)
					if err != nil {
						t.Fatalf("batch %d solo %d: %v", b, i, err)
					}
					if len(batched[i]) != len(one) {
						t.Fatalf("batch %d env %d: len %d vs solo %d",
							b, i, len(batched[i]), len(one))
					}
					for j := range one {
						if batched[i][j] != one[j] {
							t.Fatalf("batch %d env %d task %d: batched %d, solo %d",
								b, i, j, batched[i][j], one[j])
						}
					}
				}
			}
		})
	}
}

// TestOneRolloutServesTwoPolicies: one workspace rolls two policies trained
// on one template back to back — two clusters' policies, as a serving
// workspace meets them — and each answer equals its own policy's reference.
// The lane is built once: the template is shared, so nothing rebuilds.
func TestOneRolloutServesTwoPolicies(t *testing.T) {
	rng := mathx.NewRand(71)
	a := randomCRLFixture(t, rng)
	cfg := a.cfg
	cfg.Seed, cfg.DQN.Seed = 72, 73
	b, err := NewCRL(a.template, a.store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Train(); err != nil {
		t.Fatal(err)
	}
	var r Rollout
	var scratch KNNScratch
	var lane *AllocEnv
	for i := 0; i < 12; i++ {
		env := &Environment{}
		if err := a.DefineEnvironmentInto([]float64{rng.Float64()}, env, &scratch); err != nil {
			t.Fatal(err)
		}
		for k, crl := range []*CRL{a, b} {
			want, err := crl.PredictWithEnvironment(env)
			if err != nil {
				t.Fatal(err)
			}
			got, err := crl.RolloutInto(&r, env, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("env %d policy %d: rollout %v, reference %v", i, k, got, want)
			}
			if lane == nil {
				lane = r.lane
			} else if r.lane != lane {
				t.Fatalf("env %d policy %d: the lane was rebuilt for a policy on the same template", i, k)
			}
		}
	}
}

// TestRolloutRebuildsForAnotherTemplate: a workspace that meets a model built
// on a different template — the same shape, so a shape check would pass —
// rebuilds its lane instead of rolling the new model through the old
// template's costs. The second model shares the first's weights, but its time
// limit fits no task, so the right answer is to assign nothing.
func TestRolloutRebuildsForAnotherTemplate(t *testing.T) {
	rng := mathx.NewRand(81)
	a := randomCRLFixture(t, rng)
	tight := a.template.Clone()
	tight.TimeLimit = 0.1 // every fixture task costs at least 0.5
	b := &CRL{cfg: a.cfg, template: tight, store: a.store, agent: a.agent, trained: true}
	var r Rollout
	var scratch KNNScratch
	assigned := 0
	for i := 0; i < 6; i++ {
		env := &Environment{}
		if err := a.DefineEnvironmentInto([]float64{rng.Float64()}, env, &scratch); err != nil {
			t.Fatal(err)
		}
		for _, crl := range []*CRL{a, b, a} {
			want, err := crl.PredictWithEnvironment(env)
			if err != nil {
				t.Fatal(err)
			}
			got, err := crl.RolloutInto(&r, env, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("env %d: rollout %v, reference %v", i, got, want)
			}
			for _, p := range got {
				if p != Unassigned {
					if crl == b {
						t.Fatalf("env %d: the tight template's model assigned a task: %v", i, got)
					}
					assigned++
				}
			}
		}
	}
	if assigned == 0 {
		t.Fatal("the fixture policy never assigned a task; the comparison checked nothing")
	}
}

// TestPredictBatchReusesOutputBuffers pins the zero-allocation contract: a
// second call with the same out slice must append into the existing backing
// arrays rather than allocating fresh ones.
func TestPredictBatchReusesOutputBuffers(t *testing.T) {
	rng := mathx.NewRand(5)
	crl := randomCRLFixture(t, rng)
	var scratch KNNScratch
	env := &Environment{}
	if err := crl.DefineEnvironmentInto([]float64{0.5}, env, &scratch); err != nil {
		t.Fatal(err)
	}
	envs := []*Environment{env}
	out := make([]Allocation, 1)
	if err := crl.PredictBatchInto(envs, out); err != nil {
		t.Fatal(err)
	}
	first := &out[0][0]
	if err := crl.PredictBatchInto(envs, out); err != nil {
		t.Fatal(err)
	}
	if &out[0][0] != first {
		t.Fatal("second batch call reallocated the output backing array")
	}
}

// TestPredictBatchErrors covers the guard rails around the batch entry point.
func TestPredictBatchErrors(t *testing.T) {
	p, store := storeFixture(t, 4, 2, 5)
	crl, err := NewCRL(p, store, DefaultCRLConfig())
	if err != nil {
		t.Fatal(err)
	}
	env := &Environment{Importance: []float64{1, 0, 0, 1}, Capacity: []float64{1, 1}}
	if err := crl.PredictBatchInto([]*Environment{env}, make([]Allocation, 1)); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("untrained err = %v", err)
	}
	rng := mathx.NewRand(9)
	trained := randomCRLFixture(t, rng)
	if err := trained.PredictBatchInto(nil, nil); err != nil {
		t.Fatalf("empty batch err = %v", err)
	}
	var scratch KNNScratch
	good := &Environment{}
	if err := trained.DefineEnvironmentInto([]float64{0.2}, good, &scratch); err != nil {
		t.Fatal(err)
	}
	if err := trained.PredictBatchInto([]*Environment{good, good}, make([]Allocation, 1)); err == nil {
		t.Fatal("short out slice accepted")
	}
	bad := &Environment{Importance: []float64{1}, Capacity: good.Capacity}
	if err := trained.PredictBatchInto([]*Environment{bad}, make([]Allocation, 1)); err == nil {
		t.Fatal("mismatched environment accepted")
	}
}
