package alloc

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/mathx"
)

// TestDCTAConcurrentAllocateWithFeedback is the serving-path concurrency
// audit: N goroutines hammer Allocate on one DCTA while a feedback goroutine
// appends new environments to the store it defines over. Run with -race this
// pins down the documented contract — every Allocate decides into a
// workspace of its own, reads the store under its lock and scores through
// the immutable-after-Fit local model, so one DCTA serves any number of
// goroutines while the store grows.
func TestDCTAConcurrentAllocateWithFeedback(t *testing.T) {
	p := testProblem(11, 10, 3)
	store := storeFixture(t, p)
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
	oRes, err := NewOracleGreedy().Allocate(Request{Problem: p})
	if err != nil {
		t.Fatal(err)
	}
	var window []LocalSample
	for s := int64(0); s < 6; s++ {
		window = append(window, SamplesFromDecision(mkFeatures(0.05, s), oRes.Allocation)...)
	}
	local := NewLocalModel(3)
	if err := local.Fit(window); err != nil {
		t.Fatal(err)
	}
	d, err := NewDCTA(store, core.DefaultCRLConfig(), local)
	if err != nil {
		t.Fatal(err)
	}

	const (
		allocators = 8
		iterations = 24
		additions  = 12
	)
	var wg sync.WaitGroup
	errs := make(chan error, allocators+1)
	// Allocation hammer: every goroutine issues requests against the shared
	// DCTA while the store grows underneath it.
	for g := 0; g < allocators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := Request{
				Problem:   p,
				Signature: []float64{0.1 * float64(g%10)},
				Features:  mkFeatures(0.05, int64(100+g)),
			}
			for i := 0; i < iterations; i++ {
				res, err := d.Allocate(req)
				if err != nil {
					errs <- err
					return
				}
				if err := p.CheckFeasible(res.Allocation); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	// Store-growing feedback: the history DCTA defines environments over
	// keeps accumulating entries mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := mathx.NewRand(77)
		caps := make([]float64, len(p.Processors))
		for i, pr := range p.Processors {
			caps[i] = pr.Capacity
		}
		for r := 0; r < additions; r++ {
			imp := make([]float64, len(p.Tasks))
			for j := range imp {
				imp[j] = rng.Float64()
			}
			env := &core.Environment{Importance: imp, Capacity: caps, Signature: []float64{rng.Float64()}}
			if err := store.Add(env); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := store.Len(), 20+additions; got != want {
		t.Fatalf("store holds %d environments, want %d", got, want)
	}
}
