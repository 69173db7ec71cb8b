package serve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/alloc"
	"repro/internal/core"
)

// fittedLocal fits a local model on the two-cluster fixture's decisions, so a
// test server answers feature-carrying requests with DCTA from its first
// request.
func fittedLocal(t *testing.T) *alloc.LocalModel {
	t.Helper()
	var samples []alloc.LocalSample
	for i := 0; i < 4; i++ {
		samples = append(samples, alloc.SamplesFromDecision(
			mkFeatures(clusterImportance(i%2), 0.05, int64(300+i)),
			core.Allocation{0, 0, 1, core.Unassigned, core.Unassigned, 1})...)
	}
	local := alloc.NewLocalModel(17)
	if err := local.Fit(samples); err != nil {
		t.Fatal(err)
	}
	return local
}

// referenceDCTA is what a DCTA answer must be, written here from the parts:
// the ClusterNeighborhood environments nearest the cluster's representative,
// an untrained core.CRL over them defining the environment under the kNN
// policy serve trains with, Eq. 6's mix, and the pack to the coverage target.
func referenceDCTA(t *testing.T, template *core.Problem, store *core.EnvironmentStore,
	local *alloc.LocalModel, cfg Config, crlCfg core.CRLConfig, sig []float64, feats [][]float64) (int, core.Allocation, float64) {
	t.Helper()
	cluster, rep, err := store.NearestIndex(sig)
	if err != nil {
		t.Fatal(err)
	}
	near, err := store.Nearest(rep.Signature, cfg.ClusterNeighborhood)
	if err != nil {
		t.Fatal(err)
	}
	sub := core.NewEnvironmentStore()
	for _, env := range near {
		if err := sub.Add(env); err != nil {
			t.Fatal(err)
		}
	}
	crl, err := core.NewCRL(template.Clone(), sub, crlCfg)
	if err != nil {
		t.Fatal(err)
	}
	var env core.Environment
	var knn core.KNNScratch
	if err := crl.DefineEnvironmentInto(sig, &env, &knn); err != nil {
		t.Fatal(err)
	}
	combined, _, err := alloc.CombineScoresInto(local, env.Importance, feats, cfg.W1, cfg.W2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var pack alloc.PackScratch
	plan, _ := alloc.PackByScoreInto(template, combined, cfg.CoverageTarget, nil, &pack)
	var predicted float64
	for j, proc := range plan {
		if proc != core.Unassigned {
			predicted += env.Importance[j]
		}
	}
	return cluster, plan, predicted
}

// TestDCTAColdNeverTrains: on a cold server whose trainer fails the test if it
// is ever called, every evaluation epoch of the benchmark's small and paper
// worlds is answered — as `auto` with features and as `dcta` — bit for bit
// like the reference above, in normal mode, with no policy consulted; and
// still so while the training gate is saturated and while every cluster's
// breaker is open, when a request for the CRL arm is refused (the control
// that the gate and the breakers really are shut).
func TestDCTAColdNeverTrains(t *testing.T) {
	small := dcta.DefaultScenarioConfig(1)
	small.Years, small.Tasks, small.Workers = 1, 24, 5
	small.HistoryContexts, small.EvalContexts, small.CRLEpisodes = 40, 16, 10
	for name, scnCfg := range map[string]dcta.ScenarioConfig{
		"small": small,
		"paper": dcta.DefaultScenarioConfig(1),
	} {
		t.Run(name, func(t *testing.T) {
			scn, err := dcta.NewScenario(scnCfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.CRL.Episodes = scnCfg.CRLEpisodes
			cfg.Seed = 1
			cfg.Logf = func(string, ...any) {}
			s, err := NewServer(scn.Template, scn.Store, scn.Local, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.cache.train = func(cluster int) (*core.CRL, []float64, error) {
				t.Errorf("training started for cluster %d", cluster)
				return nil, nil, fmt.Errorf("no training in this test")
			}
			// The kNN policy of the default configuration (K unset): core's
			// default K, blended.
			crlCfg := core.CRLConfig{K: core.DefaultCRLConfig().K, Blend: true}

			ctx := context.Background()
			var dctaAnswers, refused int64
			sweep := func(phase, wantReason string) {
				for i, ep := range scn.Eval {
					feats, err := scn.Extractor.Vectors(ep.FeatureCtx)
					if err != nil {
						t.Fatal(err)
					}
					cluster, plan, predicted := referenceDCTA(t, scn.Template, scn.Store, scn.Local,
						s.cfg, crlCfg, ep.Signature, feats)
					for _, allocator := range []string{"", "dcta"} {
						resp, err := s.Allocate(ctx, AllocateRequest{Signature: ep.Signature, Features: feats, Allocator: allocator})
						if err != nil {
							t.Fatalf("%s epoch %d allocator %q: %v", phase, i, allocator, err)
						}
						dctaAnswers++
						if resp.Mode != ModeNormal || resp.Cache != CacheBypass || resp.Allocator != "DCTA" ||
							resp.DegradedReason != "" || resp.TrainNanos != 0 {
							t.Fatalf("%s epoch %d allocator %q: answered %+v, want a normal DCTA bypass", phase, i, allocator, resp)
						}
						if resp.Cluster != cluster ||
							math.Float64bits(resp.PredictedImportance) != math.Float64bits(predicted) {
							t.Fatalf("%s epoch %d allocator %q: cluster %d predicted %v, reference cluster %d predicted %v",
								phase, i, allocator, resp.Cluster, resp.PredictedImportance, cluster, predicted)
						}
						if len(resp.Allocation) != len(plan) {
							t.Fatalf("%s epoch %d: %d allocation entries, reference %d", phase, i, len(resp.Allocation), len(plan))
						}
						for j := range plan {
							if resp.Allocation[j] != plan[j] {
								t.Fatalf("%s epoch %d allocator %q: task %d on %d, reference %d",
									phase, i, allocator, j, resp.Allocation[j], plan[j])
							}
						}
					}
					if wantReason == "" {
						continue
					}
					resp, err := s.Allocate(ctx, AllocateRequest{Signature: ep.Signature, Features: feats, Allocator: "crl"})
					if err != nil {
						t.Fatal(err)
					}
					refused++
					if resp.Mode != ModeDegraded || resp.DegradedReason != wantReason {
						t.Fatalf("%s epoch %d: the CRL arm answered %q/%q, want degraded/%s",
							phase, i, resp.Mode, resp.DegradedReason, wantReason)
					}
				}
			}
			sweep("cold", "")

			s.cache.pending.Store(s.cache.maxWait)
			sweep("gate saturated", DegradedSaturated)
			s.cache.pending.Store(0)

			for k := 0; k < scn.Store.Len(); k++ {
				sh := s.cache.shard(k)
				sh.mu.Lock()
				sh.breakers[k] = &breaker{state: BreakerOpen, openUntil: s.cfg.Now().Add(time.Hour)}
				sh.mu.Unlock()
			}
			sweep("breakers open", DegradedCircuitOpen)

			st := s.Stats()
			if st.Cache.Trainings != 0 || st.Cache.Size != 0 {
				t.Fatalf("DCTA traffic reached the policy cache: %+v", st.Cache)
			}
			if st.DCTABypass != dctaAnswers || st.DegradedCount != refused || st.Allocates != dctaAnswers+refused {
				t.Fatalf("stats: %d bypass, %d degraded of %d allocates; sent %d DCTA and %d refused CRL requests",
					st.DCTABypass, st.DegradedCount, st.Allocates, dctaAnswers, refused)
			}
		})
	}
}

// TestDCTADefinesFromCurrentStore hammers DCTA allocates against add_to_store
// feedback (run under -race in CI) and pins what store growth does to the two
// arms: the sub-store memo is rebuilt, so a DCTA answer is defined from the
// store as it is now, while a resident policy keeps the sub-store it was
// trained over.
func TestDCTADefinesFromCurrentStore(t *testing.T) {
	ctx := context.Background()
	cfg := fastConfig()
	cfg.ClusterNeighborhood = 2
	cfg.CRL.K, cfg.CRL.Blend = 2, true
	cfg.DriftThreshold = -1  // feedback below only grows the store:
	cfg.RefitEvery = 1 << 30 // no drift retrain, no local refit
	local := fittedLocal(t)
	s, err := NewServer(testTemplate(), twoClusterStore(t), local, cfg)
	if err != nil {
		t.Fatal(err)
	}
	crlCfg := core.CRLConfig{K: 2, Blend: true}
	sig := []float64{-0.1}
	feats := mkFeatures(clusterImportance(0), 0.05, 7)
	dctaReq := AllocateRequest{Signature: sig, Features: feats}
	crlReq := AllocateRequest{Signature: sig, Allocator: "crl"}

	check := func(when string) *AllocateResponse {
		t.Helper()
		resp, err := s.Allocate(ctx, dctaReq)
		if err != nil {
			t.Fatal(err)
		}
		cluster, plan, predicted := referenceDCTA(t, s.template, s.store, local, s.cfg, crlCfg, sig, feats)
		if resp.Cache != CacheBypass || resp.Mode != ModeNormal || resp.Cluster != cluster ||
			math.Float64bits(resp.PredictedImportance) != math.Float64bits(predicted) {
			t.Fatalf("%s: answered %+v, reference cluster %d predicted %v", when, resp, cluster, predicted)
		}
		for j := range plan {
			if resp.Allocation[j] != plan[j] {
				t.Fatalf("%s: task %d on %d, reference %d", when, j, resp.Allocation[j], plan[j])
			}
		}
		return resp
	}
	before := check("before growth")

	trained, err := s.Allocate(ctx, crlReq)
	if err != nil || trained.Cache != CacheMiss {
		t.Fatalf("cold CRL allocate = %+v, %v", trained, err)
	}
	entry := s.cache.entry(0)
	trainedOver := entry.crl.Store()
	if memo, err := s.clusterStore(0); err != nil || memo != trainedOver {
		t.Fatalf("the training did not take its sub-store from the memo: %p vs %p, %v", memo, trainedOver, err)
	}

	// Growth near cluster 0: its neighbourhood, and so what DCTA defines for
	// sig, changes. The writers add distinct environments concurrently with
	// the readers on both clusters.
	const writers, readers, rounds = 4, 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				imp := clusterImportance(1)
				_, err := s.Feedback(ctx, FeedbackRequest{
					Signature:  []float64{0.05 + 0.001*float64(w*rounds+i)},
					Features:   mkFeatures(imp, 0.05, int64(w*1000+i)),
					Allocation: []int{core.Unassigned, core.Unassigned, 0, 0, 1, 1},
					Importance: imp,
					AddToStore: true,
				})
				if err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			req := AllocateRequest{Signature: []float64{-0.1 + 2.1*float64(r%2)}, Features: feats} // cluster 0 or 1
			for i := 0; i < 4*rounds; i++ {
				resp, err := s.Allocate(ctx, req)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if resp.Mode != ModeNormal || resp.Cache != CacheBypass {
					errs <- fmt.Errorf("reader %d: answered %+v, want a normal DCTA bypass", r, resp)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := s.store.Len(), 2+writers*rounds; got != want {
		t.Fatalf("store holds %d environments, want %d", got, want)
	}

	after := check("after growth")
	if after.PredictedImportance == before.PredictedImportance {
		t.Fatal("growth inside the cluster's neighbourhood did not move what DCTA defines")
	}
	memo, err := s.clusterStore(0)
	if err != nil || memo == trainedOver {
		t.Fatalf("the memo was not rebuilt on store growth (%v)", err)
	}
	if again, _ := s.clusterStore(0); again != memo {
		t.Fatal("a memo hit built a new sub-store")
	}
	// The resident policy still answers, over the sub-store it was trained on.
	hit, err := s.Allocate(ctx, crlReq)
	if err != nil || hit.Cache != CacheHit {
		t.Fatalf("warm CRL allocate after growth = %+v, %v", hit, err)
	}
	if s.cache.entry(0) != entry || entry.crl.Store() != trainedOver || trainedOver.Len() != 2 {
		t.Fatal("store growth touched the resident policy's train-time sub-store")
	}
	if hit.PredictedImportance != trained.PredictedImportance {
		t.Fatalf("the resident policy's answer moved with the store: %v → %v",
			trained.PredictedImportance, hit.PredictedImportance)
	}
	if st := s.Stats(); st.Cache.Trainings != 1 {
		t.Fatalf("%d trainings, want the one CRL request's", st.Cache.Trainings)
	}
}
