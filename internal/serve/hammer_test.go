package serve

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// TestShardRaceHammerExactLedger aims 128 goroutines at clusters that all
// collide in ONE cache shard (CacheShards=4 → mask 3 → clusters 0,4,8,12 hash
// to shard 0) while that shard's capacity (2) forces continuous LRU churn.
// The mix — allocates, drift-carrying feedback, checkpoint snapshots — hits
// every lock transition of the sharded cache at once. Run under -race this is
// the shard map's safety proof; the exact-ledger assertions below are its
// linearizability proof: every response outcome must reconcile 1:1 with the
// cache's atomic counters, so a lost update, double count or torn outcome
// anywhere in the shard path fails the test even without the race detector.
//
// The ledger only balances because every nondeterministic counter source is
// pinned: the breaker is disabled (a breaker rejection would answer bypass
// while the miss counter already ticked), the training gate is oversized (no
// saturation rejections), and the TTL is zero (no expiry retrains).
func TestShardRaceHammerExactLedger(t *testing.T) {
	cfg := fastConfig()
	cfg.CacheShards = 4
	cfg.CacheCapacity = 6 // shard 0 gets capacity 2 — 4 hot clusters churn it
	cfg.BreakerThreshold = -1
	cfg.TrainConcurrency = 64
	cfg.TrainQueue = 256
	cfg.Logf = func(string, ...any) {}
	s := serverWithStore(t, cfg, multiClusterStore(t, 16))
	if got := s.cache.stats().Shards; got != 4 {
		t.Fatalf("shards = %d, want 4", got)
	}

	clusters := []int{0, 4, 8, 12} // all & 3 == 0: one shard takes the storm
	const workers = 128
	const iters = 4

	var hitWarm, miss, coalesced, drift, degraded, allocs, feedbacks atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				c := clusters[(w+i)%len(clusters)]
				role := w % 4
				if role == 3 && i%2 == 1 {
					// Drift writer: report the *other* pattern's importance,
					// invalidating whatever policy is resident for c.
					flipped := clusterImportance((c%2 + 1) % 2)
					_, err := s.Feedback(ctx, FeedbackRequest{
						Signature:  []float64{float64(c)},
						Features:   mkFeatures(flipped, 0.05, int64(w*100+i)),
						Allocation: []int{0, 0, 1, core.Unassigned, core.Unassigned, 1},
						Importance: flipped,
					})
					if err != nil {
						errs[w] = fmt.Errorf("worker %d feedback: %w", w, err)
						return
					}
					feedbacks.Add(1)
					continue
				}
				if role == 2 && i%2 == 1 {
					// Checkpointer: walk every shard's LRU under load.
					if err := s.SaveCheckpoint(io.Discard); err != nil {
						errs[w] = fmt.Errorf("worker %d checkpoint: %w", w, err)
						return
					}
					continue
				}
				resp, err := s.Allocate(ctx, AllocateRequest{Signature: []float64{float64(c)}})
				if err != nil {
					errs[w] = fmt.Errorf("worker %d cluster %d: %w", w, c, err)
					return
				}
				allocs.Add(1)
				if resp.Mode == ModeDegraded {
					degraded.Add(1)
					continue
				}
				switch resp.Cache {
				case CacheHit, CacheWarm:
					hitWarm.Add(1)
				case CacheMiss:
					miss.Add(1)
				case CacheCoalesced:
					coalesced.Add(1)
				case CacheDrift:
					drift.Add(1)
				default:
					errs[w] = fmt.Errorf("worker %d: unexpected outcome %q", w, resp.Cache)
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
	cs := stats.Cache
	// Every response outcome reconciles exactly with the shard counters.
	if got := degraded.Load(); got != 0 || stats.DegradedCount != 0 {
		t.Fatalf("degraded answers: responses %d, counter %d — want 0 with breaker/gate pinned",
			got, stats.DegradedCount)
	}
	if cs.Hits != hitWarm.Load() {
		t.Fatalf("hits counter %d != hit/warm responses %d", cs.Hits, hitWarm.Load())
	}
	if cs.Misses != miss.Load() {
		t.Fatalf("misses counter %d != miss responses %d", cs.Misses, miss.Load())
	}
	if cs.Coalesced != coalesced.Load() {
		t.Fatalf("coalesced counter %d != coalesced responses %d", cs.Coalesced, coalesced.Load())
	}
	if cs.DriftInvalidations != drift.Load() {
		t.Fatalf("drift counter %d != drift responses %d", cs.DriftInvalidations, drift.Load())
	}
	if cs.Expired != 0 {
		t.Fatalf("expired = %d with TTL disabled", cs.Expired)
	}
	if stats.Allocates != allocs.Load() {
		t.Fatalf("allocates counter %d != answered requests %d", stats.Allocates, allocs.Load())
	}
	if stats.Feedbacks != feedbacks.Load() {
		t.Fatalf("feedbacks counter %d != feedback calls %d", stats.Feedbacks, feedbacks.Load())
	}
	// Trainings reconcile too: every non-hit policy answer was trained
	// exactly once (miss, drift), coalesced requests joined without training.
	if cs.Trainings != cs.Misses+cs.DriftInvalidations {
		t.Fatalf("trainings %d != misses %d + drift retrains %d",
			cs.Trainings, cs.Misses, cs.DriftInvalidations)
	}
	if cs.TrainFailures != 0 || cs.TrainPanics != 0 || cs.Saturations != 0 || cs.BreakerRejects != 0 {
		t.Fatalf("unexpected failure counters: %+v", cs)
	}
	// Shard capacity is a hard ceiling even under churn.
	if size := s.cache.entryCount(); size > cfg.CacheCapacity {
		t.Fatalf("cache size %d exceeds capacity %d", size, cfg.CacheCapacity)
	}
}
