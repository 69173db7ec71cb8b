package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro"
	"repro/internal/alloc"
	"repro/internal/core"
)

// referenceCRL is what a crl answer must be, written here from the parts:
// the neighbourhood environments nearest the cluster's representative, the
// blended kNN definition over them, and the greedy pack of the defined
// importance to full coverage.
func referenceCRL(t *testing.T, template *core.Problem, store *core.EnvironmentStore,
	neighbourhood, k int, sig []float64) (int, core.Allocation, float64) {
	t.Helper()
	cluster, rep, err := store.NearestIndex(sig)
	if err != nil {
		t.Fatal(err)
	}
	near, err := store.Nearest(rep.Signature, neighbourhood)
	if err != nil {
		t.Fatal(err)
	}
	sub := core.NewEnvironmentStore()
	for _, env := range near {
		if err := sub.Add(env); err != nil {
			t.Fatal(err)
		}
	}
	var env core.Environment
	var knn core.KNNScratch
	if err := sub.DefineBlendedInto(sig, k, &env, &knn); err != nil {
		t.Fatal(err)
	}
	var pack alloc.PackScratch
	plan, _ := alloc.PackByScoreInto(template, env.Importance, 1.0, nil, &pack)
	var predicted float64
	for j, proc := range plan {
		if proc != core.Unassigned {
			predicted += env.Importance[j]
		}
	}
	return cluster, plan, predicted
}

// importanceOf sums the defined importance an allocation captures.
func importanceOf(a core.Allocation, imp []float64) float64 {
	var v float64
	for j, proc := range a {
		if proc != core.Unassigned && j < len(imp) {
			v += imp[j]
		}
	}
	return v
}

// TestCRLAnswersTheGuardPack is the crl arm's differential test: on a cold
// server over each of the benchmark's worlds, the HTTP answer to
// allocator:"crl" for every stored cluster's signature — each cluster's
// first request included — equals, bit for bit, the allocation and
// predicted_importance computed in process: the blended kNN definition over
// the cluster's 5-neighbour sub-store, packed at coverage target 1.0. Every
// answer is normal, with no training time.
func TestCRLAnswersTheGuardPack(t *testing.T) {
	for name, scnCfg := range benchWorlds() {
		t.Run(name, func(t *testing.T) {
			scn, err := dcta.NewScenario(scnCfg)
			if err != nil {
				t.Fatal(err)
			}
			s := benchServer(t, scn)
			if s.cfg.ClusterNeighborhood != 5 {
				t.Fatalf("default neighbourhood %d, want 5", s.cfg.ClusterNeighborhood)
			}
			ts := httptest.NewServer(NewHandler(s, HTTPOptions{}))
			defer ts.Close()
			k := core.DefaultCRLConfig().K
			for c, env := range scn.Store.All() {
				cluster, plan, predicted := referenceCRL(t, scn.Template, scn.Store, 5, k, env.Signature)
				if cluster != c {
					t.Fatalf("stored cluster %d's signature maps to cluster %d", c, cluster)
				}
				resp, err := postCRL(ts.Client(), ts.URL, env.Signature)
				if err != nil {
					t.Fatalf("cluster %d: %v", c, err)
				}
				if resp.Mode != ModeNormal || resp.Allocator != "CRL" || resp.Cache != CacheBypass ||
					resp.TrainNanos != 0 || resp.Cluster != c {
					t.Fatalf("cluster %d: answered %+v, want a normal CRL answer with no training", c, resp)
				}
				if math.Float64bits(resp.PredictedImportance) != math.Float64bits(predicted) {
					t.Fatalf("cluster %d: predicted_importance %v, in process %v", c, resp.PredictedImportance, predicted)
				}
				if len(resp.Allocation) != len(plan) {
					t.Fatalf("cluster %d: %d allocation entries, in process %d", c, len(resp.Allocation), len(plan))
				}
				for j := range plan {
					if resp.Allocation[j] != plan[j] {
						t.Fatalf("cluster %d: task %d on %d, in process %d", c, j, resp.Allocation[j], plan[j])
					}
				}
			}
			if st := s.Stats(); st.Allocates != int64(scn.Store.Len()) || st.DegradedCount != 0 {
				t.Fatalf("stats: %d allocates, %d degraded; sent %d", st.Allocates, st.DegradedCount, scn.Store.Len())
			}
		})
	}
}

// postCRL posts one allocator:"crl" request and decodes a 200 answer.
func postCRL(client *http.Client, url string, sig []float64) (*AllocateResponse, error) {
	return postAllocate(client, url, AllocateRequest{Signature: sig, Allocator: "crl"})
}

// postAllocate posts one allocate request and decodes a 200 answer.
func postAllocate(client *http.Client, url string, req AllocateRequest) (*AllocateResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(url+"/v1/allocate", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var ar AllocateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		return nil, err
	}
	return &ar, nil
}

// TestValueParityWithinFivePercent is the value bar on retiring the served
// DQN: across three seeded fast worlds, the crl arm's answers capture at
// least 95% of the defined importance that the greedy rollouts of
// full-budget scratch-trained policies — one per cluster, over the same
// sub-stores — capture on the same evaluation signatures.
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
		s := benchServer(t, scn)
		policies := map[int]*core.CRL{}
		var served, rolled float64
		var env core.Environment
		var knn core.KNNScratch
		var lane core.Rollout
		for i, ep := range scn.Eval {
			resp, err := s.Allocate(context.Background(), AllocateRequest{Signature: ep.Signature, Allocator: "crl"})
			if err != nil {
				t.Fatal(err)
			}
			served += resp.PredictedImportance
			crl := policies[resp.Cluster]
			if crl == nil {
				sub, err := s.clusterStore(resp.Cluster)
				if err != nil {
					t.Fatal(err)
				}
				cfg := core.CRLConfig{K: s.cfg.CRL.K, Blend: s.cfg.CRL.Blend, Episodes: scnCfg.CRLEpisodes,
					Seed: seed + int64(resp.Cluster)*7919}
				cfg.DQN.Seed = cfg.Seed + 1
				if crl, err = core.NewCRL(scn.Template, sub, cfg); err != nil {
					t.Fatal(err)
				}
				if _, err := crl.Train(); err != nil {
					t.Fatal(err)
				}
				policies[resp.Cluster] = crl
			}
			if err := crl.DefineEnvironmentInto(ep.Signature, &env, &knn); err != nil {
				t.Fatal(err)
			}
			plan, err := crl.RolloutInto(&lane, &env, nil)
			if err != nil {
				t.Fatalf("epoch %d: %v", i, err)
			}
			rolled += importanceOf(plan, env.Importance)
		}
		ratio := 1.0
		if rolled > 0 {
			ratio = served / rolled
		}
		t.Logf("seed %d: rollouts %.4f, served %.4f, ratio %.4f", seed, rolled, served, ratio)
		if ratio < 0.95 {
			t.Fatalf("seed %d: value parity %.4f, want ≥ 0.95", seed, ratio)
		}
	}
}
