package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// TestShardRaceHammerExactLedger aims 128 goroutines at four clusters while
// a quarter of them grow the store with add_to_store feedback: every store
// append retires the sub-store memo under the readers, which rebuild it, so
// the mix crosses every lock transition of the memo and the store at once.
// Run under -race this is the shared state's safety proof; the exact-ledger
// assertions below are its linearizability proof: every response must
// reconcile 1:1 with the server's atomic counters, so a lost update, double
// count or torn answer fails the test even without the race detector.
func TestShardRaceHammerExactLedger(t *testing.T) {
	cfg := fastConfig()
	cfg.RefitEvery = 1 << 30 // feedback only grows the window and the store
	cfg.Logf = func(string, ...any) {}
	s := serverWithStore(t, cfg, multiClusterStore(t, 16))

	clusters := []int{0, 4, 8, 12}
	const workers = 128
	const iters = 4

	var allocs, feedbacks, stored atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				c := clusters[(w+i)%len(clusters)]
				if w%4 == 3 && i%2 == 1 {
					// Store writer: a new environment beside cluster c, with
					// the other pattern's importance.
					flipped := clusterImportance((c%2 + 1) % 2)
					_, err := s.Feedback(ctx, FeedbackRequest{
						Signature:  []float64{float64(c) + 0.3 + 0.001*float64(w)},
						Features:   mkFeatures(flipped, 0.05, int64(w*100+i)),
						Allocation: []int{0, 0, 1, core.Unassigned, core.Unassigned, 1},
						Importance: flipped,
						AddToStore: true,
					})
					if err != nil {
						errs[w] = fmt.Errorf("worker %d feedback: %w", w, err)
						return
					}
					feedbacks.Add(1)
					stored.Add(1)
					continue
				}
				resp, err := s.Allocate(ctx, AllocateRequest{Signature: []float64{float64(c)}})
				if err != nil {
					errs[w] = fmt.Errorf("worker %d cluster %d: %w", w, c, err)
					return
				}
				allocs.Add(1)
				if resp.Mode != ModeNormal || resp.Cluster != c {
					errs[w] = fmt.Errorf("worker %d cluster %d: answered %+v", w, c, resp)
					return
				}
				if err := heavyAssigned(resp.Allocation, c%2); err != nil {
					errs[w] = fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	stats := s.Stats()
	if stats.DegradedCount != 0 || stats.DCTABypass != 0 {
		t.Fatalf("%d degraded and %d DCTA answers, want only crl answers", stats.DegradedCount, stats.DCTABypass)
	}
	if stats.Allocates != allocs.Load() {
		t.Fatalf("allocates counter %d != answered requests %d", stats.Allocates, allocs.Load())
	}
	if stats.Feedbacks != feedbacks.Load() || stats.StoreAdds != stored.Load() {
		t.Fatalf("feedbacks %d, store adds %d; sent %d feedbacks, %d stored",
			stats.Feedbacks, stats.StoreAdds, feedbacks.Load(), stored.Load())
	}
	if want := 16 + int(stored.Load()); stats.StoreSize != want {
		t.Fatalf("store holds %d environments, want %d", stats.StoreSize, want)
	}
	if latency := stats.Latency.Count; latency != min(allocs.Load(), latencyWindow) {
		t.Fatalf("latency window holds %d samples for %d allocates", latency, allocs.Load())
	}
}
