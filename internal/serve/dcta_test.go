package serve

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"sync"
	"testing"

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

// benchWorlds are the benchmark's two worlds: paper
// (dcta.DefaultScenarioConfig) and small (24 tasks × 5 processors, 40 stored
// clusters).
func benchWorlds() map[string]dcta.ScenarioConfig {
	small := dcta.DefaultScenarioConfig(1)
	small.Years, small.Tasks, small.Workers = 1, 24, 5
	small.HistoryContexts, small.EvalContexts, small.CRLEpisodes = 40, 16, 10
	return map[string]dcta.ScenarioConfig{"small": small, "paper": dcta.DefaultScenarioConfig(1)}
}

// benchServer boots a server on a world the way dcta-server and the
// benchmark do.
func benchServer(t *testing.T, scn *dcta.Scenario) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CRL.Episodes = scn.Config.CRLEpisodes
	cfg.Seed = 1
	cfg.Logf = func(string, ...any) {}
	s, err := NewServer(scn.Template, scn.Store, scn.Local, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDCTAColdNeverTrains: on a cold server, every evaluation epoch of the
// benchmark's small and paper worlds is answered — as `auto` with features
// and as `dcta` — bit for bit like the reference above, in normal mode.
func TestDCTAColdNeverTrains(t *testing.T) {
	for name, scnCfg := range benchWorlds() {
		t.Run(name, func(t *testing.T) {
			scn, err := dcta.NewScenario(scnCfg)
			if err != nil {
				t.Fatal(err)
			}
			s := benchServer(t, scn)
			// The kNN policy of the default configuration (K unset): core's
			// default K, blended.
			crlCfg := core.CRLConfig{K: core.DefaultCRLConfig().K, Blend: true}

			ctx := context.Background()
			var dctaAnswers int64
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
						t.Fatalf("epoch %d allocator %q: %v", i, allocator, err)
					}
					dctaAnswers++
					if resp.Mode != ModeNormal || resp.Cache != CacheBypass || resp.Allocator != "DCTA" ||
						resp.DegradedReason != "" || resp.TrainNanos != 0 {
						t.Fatalf("epoch %d allocator %q: answered %+v, want a normal DCTA answer", i, allocator, resp)
					}
					if resp.Cluster != cluster ||
						math.Float64bits(resp.PredictedImportance) != math.Float64bits(predicted) {
						t.Fatalf("epoch %d allocator %q: cluster %d predicted %v, reference cluster %d predicted %v",
							i, allocator, resp.Cluster, resp.PredictedImportance, cluster, predicted)
					}
					if len(resp.Allocation) != len(plan) {
						t.Fatalf("epoch %d: %d allocation entries, reference %d", i, len(resp.Allocation), len(plan))
					}
					for j := range plan {
						if resp.Allocation[j] != plan[j] {
							t.Fatalf("epoch %d allocator %q: task %d on %d, reference %d",
								i, allocator, j, resp.Allocation[j], plan[j])
						}
					}
				}
			}
			st := s.Stats()
			if st.DCTABypass != dctaAnswers || st.DegradedCount != 0 || st.Allocates != dctaAnswers {
				t.Fatalf("stats: %d DCTA, %d degraded of %d allocates; sent %d DCTA requests",
					st.DCTABypass, st.DegradedCount, st.Allocates, dctaAnswers)
			}
		})
	}
}

// TestDCTADefinesFromCurrentStore hammers DCTA allocates against add_to_store
// feedback (run under -race in CI) and pins what store growth does to both
// arms: the sub-store memo is rebuilt, so an answer is defined from the store
// as it is now.
func TestDCTADefinesFromCurrentStore(t *testing.T) {
	ctx := context.Background()
	cfg := fastConfig()
	cfg.ClusterNeighborhood = 2
	cfg.CRL.K, cfg.CRL.Blend = 2, true
	cfg.RefitEvery = 1 << 30 // feedback below only grows the store
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
		crl, err := s.Allocate(ctx, crlReq)
		if err != nil {
			t.Fatal(err)
		}
		_, guard, guardPredicted := referenceCRL(t, s.template, s.store, s.cfg.ClusterNeighborhood, 2, sig)
		if crl.Allocator != "CRL" || math.Float64bits(crl.PredictedImportance) != math.Float64bits(guardPredicted) {
			t.Fatalf("%s: crl answered %+v, reference predicted %v", when, crl, guardPredicted)
		}
		for j := range guard {
			if crl.Allocation[j] != guard[j] {
				t.Fatalf("%s: crl task %d on %d, reference %d", when, j, crl.Allocation[j], guard[j])
			}
		}
		return resp
	}
	before := check("before growth")
	memoBefore, err := s.clusterStore(0)
	if err != nil {
		t.Fatal(err)
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
	if err != nil || memo == memoBefore {
		t.Fatalf("the memo was not rebuilt on store growth (%v)", err)
	}
	if again, _ := s.clusterStore(0); again != memo {
		t.Fatal("a memo hit built a new sub-store")
	}
}

// TestServedDecisionMatchesInSim holds the served decision to the one the
// figures measure: over HTTP on a single node, for every evaluation epoch of
// both benchmark worlds, the DCTA answer (the scenario's fitted local model)
// equals, bit for bit, what alloc.DCTA answers when it is built over the
// answer's cluster sub-store with serve's kNN policy, weights and coverage
// target; and the crl answer equals CRLAllocator's guard — Decide with no
// local term at target 1.0 — over the same sub-store. Allocation and
// predicted_importance are compared.
func TestServedDecisionMatchesInSim(t *testing.T) {
	for name, scnCfg := range benchWorlds() {
		t.Run(name, func(t *testing.T) {
			scn, err := dcta.NewScenario(scnCfg)
			if err != nil {
				t.Fatal(err)
			}
			s := benchServer(t, scn)
			ts := httptest.NewServer(NewHandler(s, HTTPOptions{}))
			defer ts.Close()
			same := func(what string, resp *AllocateResponse, plan core.Allocation, predicted float64) {
				t.Helper()
				if resp.Mode != ModeNormal || math.Float64bits(resp.PredictedImportance) != math.Float64bits(predicted) {
					t.Fatalf("%s: answered %+v, in sim predicted %v", what, resp, predicted)
				}
				if len(resp.Allocation) != len(plan) {
					t.Fatalf("%s: %d allocation entries, in sim %d", what, len(resp.Allocation), len(plan))
				}
				for j := range plan {
					if resp.Allocation[j] != plan[j] {
						t.Fatalf("%s: task %d on %d, in sim %d", what, j, resp.Allocation[j], plan[j])
					}
				}
			}
			for i, ep := range scn.Eval {
				req, err := scn.RequestFor(ep)
				if err != nil {
					t.Fatal(err)
				}
				cluster, _, err := scn.Store.NearestIndex(req.Signature)
				if err != nil {
					t.Fatal(err)
				}
				near, err := scn.Store.Nearest(scn.Store.All()[cluster].Signature, s.cfg.ClusterNeighborhood)
				if err != nil {
					t.Fatal(err)
				}
				sub := core.NewEnvironmentStore()
				for _, env := range near {
					if err := sub.Add(env); err != nil {
						t.Fatal(err)
					}
				}

				d, err := alloc.NewDCTA(sub, s.cfg.CRL, scn.Local)
				if err != nil {
					t.Fatal(err)
				}
				d.W1, d.W2, d.CoverageTarget = s.cfg.W1, s.cfg.W2, s.cfg.CoverageTarget
				sim, err := d.Allocate(req)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := postAllocate(ts.Client(), ts.URL, AllocateRequest{
					Signature: req.Signature, Features: req.Features, Allocator: "dcta"})
				if err != nil {
					t.Fatalf("epoch %d: %v", i, err)
				}
				if resp.Allocator != "DCTA" || resp.Cluster != cluster {
					t.Fatalf("epoch %d: answered %+v, want DCTA for cluster %d", i, resp, cluster)
				}
				same(fmt.Sprintf("epoch %d DCTA", i), resp, sim.Allocation, sim.PredictedImportance)

				var guard alloc.Decision
				if err := alloc.Decide(req.Problem, sub, s.cfg.CRL, req.Signature,
					nil, nil, s.cfg.W1, s.cfg.W2, 1.0, &guard); err != nil {
					t.Fatal(err)
				}
				if resp, err = postCRL(ts.Client(), ts.URL, req.Signature); err != nil {
					t.Fatalf("epoch %d: %v", i, err)
				}
				if resp.Allocator != "CRL" || resp.Cluster != cluster {
					t.Fatalf("epoch %d: answered %+v, want CRL for cluster %d", i, resp, cluster)
				}
				same(fmt.Sprintf("epoch %d CRL", i), resp, guard.Plan, guard.Predicted)
			}
		})
	}
}
