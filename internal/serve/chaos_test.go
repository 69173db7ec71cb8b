package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mathx"
)

// TestChaosServing is the serving chaos suite: a real HTTP server under a
// seeded, concurrent mix of allocates on both arms, feedback that refits the
// local model and grows the store (so the DCTA arm switches on mid-run and
// every cluster's sub-store memo is rebuilt under the readers), and
// malformed bodies. Invariants, for every interleaving:
//
//   - zero 5xx responses — malformed requests 400, everything else 200
//   - every 200 allocation is feasible and answered in normal mode
//   - the stats ledger reconciles exactly with the answers clients saw
//
// CI runs this (and the rest of the Chaos set) under -race with -count=2.
func TestChaosServing(t *testing.T) {
	cfg := fastConfig()
	cfg.RefitEvery = 12
	cfg.Logf = func(string, ...any) {}
	const clusters = 4
	s := serverWithStore(t, cfg, multiClusterStore(t, clusters))

	ts := httptest.NewServer(NewHandler(s, HTTPOptions{RequestTimeout: 2 * time.Second}))
	defer ts.Close()

	type outcome struct {
		op   string
		code int
		body string
	}
	const workers = 8
	const opsPerWorker = 25
	results := make([][]outcome, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := mathx.NewRand(int64(1000 + w))
			client := ts.Client()
			for i := 0; i < opsPerWorker; i++ {
				cluster := rng.Intn(clusters)
				sig := []float64{float64(cluster) + 0.1*(rng.Float64()-0.5)}
				imp := clusterImportance(cluster % 2)
				var op string
				var code int
				var body string
				switch roll := rng.Float64(); {
				case roll < 0.35: // auto: DCTA once the local model is fitted
					op = "allocate"
					code, body = chaosPost(client, ts.URL+"/v1/allocate",
						AllocateRequest{Signature: sig, Features: mkFeatures(imp, 0.05, int64(w*100+i))})
				case roll < 0.55:
					op = "allocate"
					code, body = chaosPost(client, ts.URL+"/v1/allocate",
						AllocateRequest{Signature: sig, Allocator: "crl"})
				case roll < 0.80:
					op = "feedback"
					if i%3 == 0 {
						op = "store"
					}
					code, body = chaosPost(client, ts.URL+"/v1/feedback", FeedbackRequest{
						Signature:  sig,
						Features:   mkFeatures(imp, 0.05, int64(w*100+i)),
						Allocation: []int{0, 0, 1, 1, core.Unassigned, core.Unassigned},
						Importance: imp,
						AddToStore: op == "store",
					})
				case roll < 0.90: // malformed: empty signature
					op = "malformed"
					code, body = chaosPost(client, ts.URL+"/v1/allocate", AllocateRequest{})
				default: // malformed: broken JSON
					op = "malformed"
					resp, err := client.Post(ts.URL+"/v1/allocate", "application/json",
						bytes.NewReader([]byte(`{"signature": [0.5`)))
					if err != nil {
						code, body = -1, err.Error()
					} else {
						b, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						code, body = resp.StatusCode, string(b)
					}
				}
				results[w] = append(results[w], outcome{op, code, body})
			}
		}(w)
	}
	wg.Wait()

	var allocates, dcta, feedbacks, stored int64
	for w := range results {
		for _, r := range results[w] {
			if r.op == "malformed" {
				if r.code != http.StatusBadRequest {
					t.Fatalf("malformed got %d (want 400): %s", r.code, r.body)
				}
				continue
			}
			if r.code != http.StatusOK {
				t.Fatalf("%s got %d (want 200): %s", r.op, r.code, r.body)
			}
			switch r.op {
			case "feedback":
				feedbacks++
				continue
			case "store":
				feedbacks++
				stored++
				continue
			}
			var ar AllocateResponse
			if err := json.Unmarshal([]byte(r.body), &ar); err != nil {
				t.Fatalf("allocate response decode: %v", err)
			}
			if ar.Mode != ModeNormal || ar.Cache != CacheBypass {
				t.Fatalf("allocate answered %+v, want normal mode", ar)
			}
			if err := s.template.CheckFeasible(ar.Allocation); err != nil {
				t.Fatalf("infeasible 200 allocation: %v", err)
			}
			allocates++
			if ar.Allocator == "DCTA" {
				dcta++
			}
		}
	}
	if allocates == 0 || stored == 0 {
		t.Fatalf("chaos load produced %d allocates and %d stored environments", allocates, stored)
	}
	stats := s.Stats()
	if stats.Allocates != allocates || stats.DCTABypass != dcta || stats.DegradedCount != 0 {
		t.Fatalf("stats: %d allocates (%d DCTA, %d degraded); clients saw %d (%d DCTA)",
			stats.Allocates, stats.DCTABypass, stats.DegradedCount, allocates, dcta)
	}
	if stats.Feedbacks != feedbacks || stats.StoreAdds != stored || stats.StoreSize != clusters+int(stored) {
		t.Fatalf("stats: %d feedbacks, %d store adds, store %d; clients sent %d feedbacks, %d stored",
			stats.Feedbacks, stats.StoreAdds, stats.StoreSize, feedbacks, stored)
	}
	if stats.RecoveredPanics != 0 {
		t.Fatalf("RecoveredPanics = %d", stats.RecoveredPanics)
	}
	if resp, err := s.Allocate(context.Background(), AllocateRequest{Signature: []float64{0}}); err != nil || resp.Mode != ModeNormal {
		t.Fatalf("post-chaos allocate = %+v, %v", resp, err)
	}
}

// chaosPost posts one JSON request, returning status and body. Transport
// errors return code -1 so the caller reports them as invariant violations.
func chaosPost(client *http.Client, url string, body any) (int, string) {
	raw, err := json.Marshal(body)
	if err != nil {
		return -1, err.Error()
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return -1, err.Error()
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}
