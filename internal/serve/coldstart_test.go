package serve

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro"
)

// allocate issues one CRL allocation for the given cluster signature.
func allocate(t *testing.T, s *Server, sig float64) *AllocateResponse {
	t.Helper()
	resp, err := s.Allocate(context.Background(), AllocateRequest{Signature: []float64{sig}})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestWarmStartUsesNearestDonor pins the neighbour-selection rule: each cold
// training after the first seeds from the resident policy whose cluster
// signature is nearest, and the provenance records the donor.
func TestWarmStartUsesNearestDonor(t *testing.T) {
	s := serverWithStore(t, fastConfig(), multiClusterStore(t, 3))

	allocate(t, s, 0) // scratch: nothing resident to transfer from
	if got := s.Stats().Cache.WarmStarts; got != 0 {
		t.Fatalf("first training warm-started (%d)", got)
	}
	if ws := s.cache.entry(0).crl.WarmStarted(); ws != nil {
		t.Fatalf("scratch policy has provenance %+v", ws)
	}

	allocate(t, s, 1) // only cluster 0 is resident
	if ws := s.cache.entry(1).crl.WarmStarted(); ws == nil || ws.Source != 0 {
		t.Fatalf("cluster 1 provenance = %+v, want donor 0", ws)
	}

	allocate(t, s, 2) // clusters 0 (distance 2) and 1 (distance 1) resident
	ws := s.cache.entry(2).crl.WarmStarted()
	if ws == nil || ws.Source != 1 {
		t.Fatalf("cluster 2 provenance = %+v, want the nearer donor 1", ws)
	}
	if ws.Distance != 1 {
		t.Fatalf("cluster 2 donor distance = %v, want 1", ws.Distance)
	}
	if got := s.Stats().Cache.WarmStarts; got != 2 {
		t.Fatalf("warm starts = %d, want 2", got)
	}
}

// TestDisableWarmStart: the kill switch trains every cluster from scratch.
func TestDisableWarmStart(t *testing.T) {
	cfg := fastConfig()
	cfg.DisableWarmStart = true
	s := serverWithStore(t, cfg, multiClusterStore(t, 3))
	for c := 0; c < 3; c++ {
		allocate(t, s, float64(c))
	}
	if got := s.Stats().Cache.WarmStarts; got != 0 {
		t.Fatalf("warm starts = %d with warm starting disabled", got)
	}
	for c := 0; c < 3; c++ {
		if ws := s.cache.entry(c).crl.WarmStarted(); ws != nil {
			t.Fatalf("cluster %d has provenance %+v", c, ws)
		}
	}
}

// TestSpeculationPretrainsNeighbour drives the full background pipeline: a
// demand training triggers the pre-trainer, which installs the nearest
// untrained neighbour; the next request for it is a speculative hit and
// promotes the entry.
func TestSpeculationPretrainsNeighbour(t *testing.T) {
	cfg := fastConfig()
	cfg.SpeculateNeighbors = 1
	s := serverWithStore(t, cfg, multiClusterStore(t, 3))

	allocate(t, s, 0)
	deadline := time.Now().Add(30 * time.Second)
	for s.Stats().Cache.SpeculativeInstalls == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pre-trainer never installed a policy: %+v", s.Stats().Cache)
		}
		time.Sleep(5 * time.Millisecond)
	}
	e := s.cache.entry(1) // cluster 0's nearest untrained neighbour
	if e == nil || e.prov != provSpeculative {
		t.Fatalf("cluster 1 should hold a speculative policy (entry %+v)", e)
	}
	if e.promotedAt.Load() != 0 {
		t.Fatal("speculative policy promoted before any request")
	}

	resp := allocate(t, s, 1)
	if resp.Cache != CacheSpeculative {
		t.Fatalf("cache outcome = %q, want %q", resp.Cache, CacheSpeculative)
	}
	if e.promotedAt.Load() == 0 {
		t.Fatal("first real hit should promote the speculative entry")
	}
	st := s.Stats().Cache
	if st.SpeculativeHits == 0 || st.SpeculativeTrainings == 0 {
		t.Fatalf("speculation counters not recorded: %+v", st)
	}
}

// TestSpeculationFollowsDemandTraining pins the order the training goroutine
// works in: with a single gate slot, the trigger must fire only after the
// demand training has given back the slot and its pending count, or the
// pre-trainer finds one of them held and gives up for good. The trigger runs
// on the training goroutine, so wrapping it tells the test when speculation
// is over — no polling.
func TestSpeculationFollowsDemandTraining(t *testing.T) {
	cfg := fastConfig()
	cfg.TrainConcurrency = 1
	cfg.SpeculateNeighbors = 1
	s := serverWithStore(t, cfg, multiClusterStore(t, 3))
	speculate, done := s.cache.onTrained, make(chan struct{})
	s.cache.onTrained = func(cluster int) {
		speculate(cluster)
		close(done)
	}

	if resp := allocate(t, s, 0); resp.Cache != CacheMiss {
		t.Fatalf("cache outcome = %q, want %q", resp.Cache, CacheMiss)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the demand training never triggered the pre-trainer")
	}
	st := s.Stats().Cache
	if st.SpeculativeTrainings != 1 || st.SpeculativeInstalls != 1 {
		t.Fatalf("one demand miss should pre-train and install one neighbour: %+v", st)
	}
	if e := s.cache.entry(1); e == nil || e.prov != provSpeculative {
		t.Fatalf("cluster 1 should hold a speculative policy (entry %+v)", e)
	}
}

// TestSpeculativeInstallNeverDisplaces: a speculative result must never
// replace a resident policy nor evict one from a full shard.
func TestSpeculativeInstallNeverDisplaces(t *testing.T) {
	cfg := fastConfig()
	cfg.CacheCapacity = 1 // one shard, one slot
	s := serverWithStore(t, cfg, multiClusterStore(t, 3))

	allocate(t, s, 0)
	demand := s.cache.entry(0)
	if demand == nil || demand.prov != provDemand {
		t.Fatalf("cluster 0 should be demand-resident, got %+v", demand)
	}

	if s.cache.installSpeculative(0, demand.crl, demand.imp) {
		t.Fatal("speculative install displaced a resident entry")
	}
	if s.cache.installSpeculative(1, demand.crl, demand.imp) {
		t.Fatal("speculative install evicted from a full shard")
	}
	if got := s.cache.entry(0); got != demand {
		t.Fatal("resident demand entry was replaced")
	}
	if s.cache.entry(1) != nil {
		t.Fatal("refused speculation still installed")
	}
	if n := s.Stats().Cache.SpeculativeInstalls; n != 0 {
		t.Fatalf("refused installs counted: %d", n)
	}
}

// TestSpeculationSubordination: the pre-trainer must refuse to run while
// demand work is pending or the training gate has no free slot.
func TestSpeculationSubordination(t *testing.T) {
	cfg := fastConfig()
	cfg.TrainConcurrency = 1
	s := serverWithStore(t, cfg, multiClusterStore(t, 3))

	s.cache.pending.Add(1)
	s.speculateCluster(1)
	if n := s.cache.specTrainings.Load(); n != 0 {
		t.Fatalf("speculated with demand pending (%d trainings)", n)
	}
	s.cache.pending.Add(-1)

	s.cache.gate <- struct{}{} // occupy the only training slot
	s.speculateCluster(1)
	if n := s.cache.specTrainings.Load(); n != 0 {
		t.Fatalf("speculated with the gate full (%d trainings)", n)
	}
	<-s.cache.gate

	s.speculateCluster(1)
	if n := s.cache.specTrainings.Load(); n != 1 {
		t.Fatalf("idle-gate speculation did not run (%d trainings)", n)
	}
	e := s.cache.entry(1)
	if e == nil || e.prov != provSpeculative {
		t.Fatalf("speculated policy not installed: %+v", e)
	}
}

// TestSpeculativeTTLDiscountAndPromotion: an unpromoted speculative policy
// lives on half the TTL; the first real hit promotes it to the full TTL
// measured from the promotion instant.
func TestSpeculativeTTLDiscountAndPromotion(t *testing.T) {
	clock := newFakeClock()
	cfg := fastConfig()
	cfg.Now = clock.Now
	cfg.PolicyTTL = 10 * time.Minute
	s := serverWithStore(t, cfg, multiClusterStore(t, 4))

	allocate(t, s, 0)
	donor := s.cache.entry(0)

	// Unpromoted: expired after 6 min (half of the 10-minute TTL is 5).
	if !s.cache.installSpeculative(1, donor.crl, donor.imp) {
		t.Fatal("install refused")
	}
	clock.Advance(6 * time.Minute)
	if resp := allocate(t, s, 1); resp.Cache != CacheExpired {
		t.Fatalf("aged unpromoted speculation: outcome %q, want %q", resp.Cache, CacheExpired)
	}

	// Promoted: the same age is fine, and the clock restarts at promotion.
	if !s.cache.installSpeculative(2, donor.crl, donor.imp) {
		t.Fatal("install refused")
	}
	if resp := allocate(t, s, 2); resp.Cache != CacheSpeculative {
		t.Fatalf("promotion hit: outcome %q", resp.Cache)
	}
	clock.Advance(6 * time.Minute)
	if resp := allocate(t, s, 2); resp.Cache != CacheSpeculative {
		t.Fatalf("promoted entry at age 6m: outcome %q, want still resident", resp.Cache)
	}
	clock.Advance(5 * time.Minute) // 11 min past promotion > full TTL
	if resp := allocate(t, s, 2); resp.Cache != CacheExpired {
		t.Fatalf("promoted entry past full TTL: outcome %q, want %q", resp.Cache, CacheExpired)
	}
}

// TestSpeculativeDriftDiscount: unpromoted speculative policies tolerate only
// half the drift threshold; demand and promoted ones get the full budget.
func TestSpeculativeDriftDiscount(t *testing.T) {
	cfg := fastConfig()
	cfg.DriftThreshold = 0.4
	s := serverWithStore(t, cfg, multiClusterStore(t, 4))

	allocate(t, s, 0)
	donor := s.cache.entry(0)
	drift30 := func(imp []float64) []float64 {
		obs := make([]float64, len(imp))
		for i, v := range imp {
			obs[i] = v * 1.3 // relative L2 distance exactly 0.3
		}
		return obs
	}

	// Demand entry: 0.3 < 0.4 → tolerated.
	if s.cache.noteImportance(0, drift30(donor.imp)) {
		t.Fatal("demand entry invalidated below the full threshold")
	}

	// Unpromoted speculative: 0.3 > 0.4/2 → invalidated.
	if !s.cache.installSpeculative(1, donor.crl, donor.imp) {
		t.Fatal("install refused")
	}
	if !s.cache.noteImportance(1, drift30(donor.imp)) {
		t.Fatal("unpromoted speculation survived drift beyond its discounted threshold")
	}

	// Promoted speculative: full threshold again.
	if !s.cache.installSpeculative(2, donor.crl, donor.imp) {
		t.Fatal("install refused")
	}
	if resp := allocate(t, s, 2); resp.Cache != CacheSpeculative {
		t.Fatalf("promotion hit: outcome %q", resp.Cache)
	}
	if s.cache.noteImportance(2, drift30(donor.imp)) {
		t.Fatal("promoted speculation invalidated below the full threshold")
	}
}

// TestCheckpointSpeculativeProvenance: unpromoted speculative entries
// round-trip with their provenance (keeping the discounted TTL in the next
// process); promoted ones persist as demand-confirmed policies whose TTL
// clock starts at promotion; demand entries stay provenance-free, which is
// also the pre-PR7 wire shape.
func TestCheckpointSpeculativeProvenance(t *testing.T) {
	clock := newFakeClock()
	cfg := fastConfig()
	cfg.Now = clock.Now
	store := multiClusterStore(t, 4)
	a := serverWithStore(t, cfg, store)

	allocate(t, a, 0)
	donor := a.cache.entry(0)
	if !a.cache.installSpeculative(1, donor.crl, donor.imp) {
		t.Fatal("install refused")
	}
	if !a.cache.installSpeculative(2, donor.crl, donor.imp) {
		t.Fatal("install refused")
	}
	clock.Advance(time.Minute)
	promoteTime := clock.Now()
	if resp := allocate(t, a, 2); resp.Cache != CacheSpeculative {
		t.Fatalf("promotion hit: outcome %q", resp.Cache)
	}
	clock.Advance(time.Minute)

	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	b := serverWithStore(t, cfg, store)
	n, err := b.LoadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("restored %d entries, want 3", n)
	}

	if e := b.cache.entry(0); e.prov != provCheckpoint {
		t.Fatalf("demand entry restored with prov %d, want checkpoint", e.prov)
	}
	if e := b.cache.entry(1); e.prov != provSpeculative {
		t.Fatalf("unpromoted speculation restored with prov %d, want speculative", e.prov)
	}
	e := b.cache.entry(2)
	if e.prov != provCheckpoint {
		t.Fatalf("promoted speculation restored with prov %d, want demand-confirmed", e.prov)
	}
	if !e.trainedAt.Equal(promoteTime) {
		t.Fatalf("promoted entry TrainedAt = %v, want promotion time %v", e.trainedAt, promoteTime)
	}
}

// TestValueParityWithinFivePercent is the transfer-quality bar on the
// collapsed cold start: across three seeded small worlds, the serving
// defaults (neighbour warm-start + early stopping on a fraction of the
// episode budget) must capture at least 95% of the importance a full-budget
// scratch training captures on the same evaluation signatures. The requests
// force the CRL arm so the comparison exercises the trained DQNs rather than
// the local process.
func TestValueParityWithinFivePercent(t *testing.T) {
	if testing.Short() {
		t.Skip("trains full-budget scratch reference policies")
	}
	for seed := int64(1); seed <= 3; seed++ {
		scnCfg, err := dcta.ScaledScenarioConfig(seed, "fast")
		if err != nil {
			t.Fatal(err)
		}
		scn, err := dcta.NewScenario(scnCfg)
		if err != nil {
			t.Fatal(err)
		}
		var reqs []AllocateRequest
		for _, ep := range scn.Eval {
			feats, err := scn.Extractor.Vectors(ep.FeatureCtx)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, AllocateRequest{Signature: ep.Signature, Features: feats, Allocator: "crl"})
		}
		captured := func(collapsed bool) float64 {
			cfg := DefaultConfig()
			cfg.ClusterNeighborhood = 5
			cfg.Seed = seed
			cfg.CRL.Episodes = scnCfg.CRLEpisodes
			cfg.Logf = func(string, ...any) {}
			if !collapsed {
				cfg.DisableWarmStart = true
				cfg.CRL.StopWindow = -1 // burn the full budget: the reference
			}
			s, err := NewServer(scn.Template, scn.Store, scn.Local, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var total float64
			for _, req := range reqs {
				resp, err := s.Allocate(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				total += resp.PredictedImportance
			}
			return total
		}
		scratch, fast := captured(false), captured(true)
		ratio := 1.0
		if scratch > 0 {
			ratio = fast / scratch
		}
		t.Logf("seed %d: scratch %.4f, collapsed %.4f, ratio %.4f", seed, scratch, fast, ratio)
		if ratio < 0.95 {
			t.Fatalf("seed %d: value parity %.4f, want ≥ 0.95", seed, ratio)
		}
	}
}
