package alloc

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/mathx"
)

// TestDCTAConcurrentAllocateWithFeedback is the serving-path concurrency
// audit: N goroutines hammer DCTA.Allocate while a feedback goroutine keeps
// fitting fresh local models on a growing sample window and swapping them in
// with SetLocal, and another goroutine appends new environments to the
// shared store. Run with -race this pins down the documented contract — the
// DCTA path is goroutine-safe as long as feedback publishes *new*
// LocalModels instead of refitting the live one.
func TestDCTAConcurrentAllocateWithFeedback(t *testing.T) {
	p := testProblem(11, 10, 3)
	crl := crlFixture(t, p)
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
	sampleBatch := func(seed int64) []LocalSample {
		oRes, err := oracle.Allocate(Request{Problem: p})
		if err != nil {
			t.Fatal(err)
		}
		return SamplesFromDecision(mkFeatures(0.05, seed), oRes.Allocation)
	}
	var window []LocalSample
	for s := int64(0); s < 6; s++ {
		window = append(window, sampleBatch(s)...)
	}
	local := NewLocalModel(3)
	if err := local.Fit(window); err != nil {
		t.Fatal(err)
	}
	d, err := NewDCTA(crl, local)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetLocal(nil); err == nil {
		t.Fatal("nil local model accepted")
	}

	const (
		allocators = 8
		iterations = 24
		refits     = 12
	)
	var wg sync.WaitGroup
	errs := make(chan error, allocators+2)
	// Allocation hammer: every goroutine issues requests against the shared
	// DCTA while the local model churns underneath it.
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
	// Online feedback: grow the window, fit a *fresh* model, publish it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < refits; r++ {
			window = append(window, sampleBatch(int64(200+r))...)
			fresh := NewLocalModel(int64(300 + r))
			if err := fresh.Fit(window); err != nil {
				errs <- err
				return
			}
			if err := d.SetLocal(fresh); err != nil {
				errs <- err
				return
			}
		}
	}()
	// History growth: the store the CRL defines environments over keeps
	// accumulating entries mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := mathx.NewRand(77)
		caps := make([]float64, len(p.Processors))
		for i, pr := range p.Processors {
			caps[i] = pr.Capacity
		}
		for r := 0; r < refits; r++ {
			imp := make([]float64, len(p.Tasks))
			for j := range imp {
				imp[j] = rng.Float64()
			}
			env := &core.Environment{Importance: imp, Capacity: caps, Signature: []float64{rng.Float64()}}
			if err := crlStore(d).Add(env); err != nil {
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
	if got := d.LocalModel(); got == local {
		t.Fatal("feedback never swapped the local model")
	}
}

// crlStore digs the shared environment store out of the DCTA's general
// process via the public template/store accessors.
func crlStore(d *DCTA) *core.EnvironmentStore { return d.crl.Store() }
