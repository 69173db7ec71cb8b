//go:build !race

// The race detector instruments allocations, making testing.AllocsPerRun
// report nonzero even for allocation-free code — so this file is excluded
// from -race runs and CI invokes it in a separate non-race pass.

package alloc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/mathx"
)

// TestDecideZeroAllocs pins Decide's memory contract at the paper world's
// shape (50 tasks, 9 processors, 5-wide signatures over 60 stored
// environments, Table-I feature rows): once a workspace has grown, a
// decision allocates nothing, with the local term and without it, and a
// workspace alternating between the two allocates nothing either.
func TestDecideZeroAllocs(t *testing.T) {
	p := testProblem(21, 50, 9)
	rng := mathx.NewRand(22)
	caps := make([]float64, len(p.Processors))
	for i, pr := range p.Processors {
		caps[i] = pr.Capacity
	}
	store := core.NewEnvironmentStore()
	signature := func() []float64 {
		z := make([]float64, 5)
		for i := range z {
			z[i] = rng.Float64()
		}
		return z
	}
	for e := 0; e < 60; e++ {
		imp := make([]float64, len(p.Tasks))
		for j := range imp {
			imp[j] = rng.Float64()
		}
		if err := store.Add(&core.Environment{Importance: imp, Capacity: caps, Signature: signature()}); err != nil {
			t.Fatal(err)
		}
	}
	feats := make([][]float64, len(p.Tasks))
	var samples []LocalSample
	for j := range feats {
		v := make([]float64, features.Dim)
		for k := range v {
			v[k] = rng.NormFloat64()
		}
		feats[j] = v
		label := -1.0
		if v[0] > 0 {
			label = 1
		}
		samples = append(samples, LocalSample{Features: v, Selected: label})
	}
	local := NewLocalModel(23)
	if err := local.Fit(samples); err != nil {
		t.Fatal(err)
	}
	policy := core.DefaultCRLConfig()
	sig := signature()
	var d Decision
	paths := map[string]func(){
		"without a local term": func() {
			if err := Decide(p, store, policy, sig, nil, nil, 0, 0, 1.0, &d); err != nil {
				t.Fatal(err)
			}
		},
		"with a local term": func() {
			if err := Decide(p, store, policy, sig, local, feats, 0.5, 0.5, 0.9, &d); err != nil {
				t.Fatal(err)
			}
		},
	}
	paths["alternating"] = func() {
		paths["without a local term"]()
		paths["with a local term"]()
	}
	for name, decide := range paths {
		for i := 0; i < 4; i++ {
			decide()
		}
		if avg := testing.AllocsPerRun(200, decide); avg != 0 {
			t.Fatalf("Decide %s: %.2f allocs/op, want 0", name, avg)
		}
	}
}
