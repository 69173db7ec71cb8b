//go:build !race

// The race detector instruments allocations, making testing.AllocsPerRun
// report nonzero even for allocation-free code — so this file is excluded
// from -race runs and CI invokes it in a separate non-race pass.

package serve

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
)

// zeroAllocServer answers cluster 0 once and returns the server plus a
// manually-held workspace, ready for steady-state measurement.
func zeroAllocServer(t *testing.T, cfg Config) (*Server, *allocWS) {
	t.Helper()
	s := newTestServer(t, cfg)
	if _, err := s.Allocate(context.Background(), AllocateRequest{Signature: []float64{0}}); err != nil {
		t.Fatal(err)
	}
	return s, s.getWS()
}

// TestWarmAllocateZeroAllocsCRL pins the crl arm's memory contract: once its
// cluster's sub-store is built, an allocate performs ZERO heap allocations —
// the pooled workspace, the kNN scratch, the pack scratch and the response
// backing arrays are all reused, through AllocateInto and from the body's
// bytes to the answer's. One workspace alternating between two clusters
// allocates nothing either. Any regression here (a fresh slice, a
// fmt.Sprintf, an interface box on the hot path) fails CI.
func TestWarmAllocateZeroAllocsCRL(t *testing.T) {
	cfg := fastConfig()
	cfg.ClusterNeighborhood = 2
	cfg.CRL.K, cfg.CRL.Blend = 2, true // the blended definition, as served
	s, ws := zeroAllocServer(t, cfg)
	ctx := context.Background()
	req := AllocateRequest{Signature: []float64{0.2}, Allocator: "crl"}
	other := AllocateRequest{Signature: []float64{0.9}, Allocator: "crl"}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string]func(){
		"AllocateInto": func() {
			if err := s.AllocateInto(ctx, req, ws); err != nil {
				t.Fatal(err)
			}
		},
		"body bytes to answer bytes": func() {
			ws.buf = append(ws.buf[:0], body...)
			if code, err := s.answerAllocate(ctx, ws); err != nil {
				t.Fatal(code, err)
			}
		},
		"two clusters": func() {
			for _, r := range []AllocateRequest{req, other} {
				if err := s.AllocateInto(ctx, r, ws); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	for name, answer := range paths {
		// The first calls build the sub-stores and grow the scratch.
		for i := 0; i < 8; i++ {
			answer()
			if ws.resp.Mode != ModeNormal || ws.resp.Allocator != "CRL" {
				t.Fatalf("%s warmup %d: %+v", name, i, ws.resp)
			}
		}
		if avg := testing.AllocsPerRun(200, answer); avg != 0 {
			t.Fatalf("crl allocate, %s: %.2f allocs/op, want 0", name, avg)
		}
	}
}

// TestWarmAllocateZeroAllocsDCTA extends the zero-alloc contract to the DCTA
// path: the sub-store memo hit, environment definition, combined scoring
// (local SVM + general importance) and the greedy pack run entirely on pooled
// scratch — through AllocateInto, and from the body's bytes to the answer's.
func TestWarmAllocateZeroAllocsDCTA(t *testing.T) {
	cfg := fastConfig()
	cfg.RefitEvery = 12
	s := newTestServer(t, cfg)
	ws := s.getWS()
	ctx := context.Background()

	// Fit the local model through the feedback path (as production would).
	imp := clusterImportance(0)
	executed := []int{0, 0, 1, core.Unassigned, core.Unassigned, 1}
	for i := 0; i < 2; i++ {
		fb, err := s.Feedback(ctx, FeedbackRequest{
			Signature:  []float64{0},
			Features:   mkFeatures(imp, 0.05, int64(60+i)),
			Allocation: executed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 && !fb.Refitted {
			t.Fatalf("local model not refitted: %+v", fb)
		}
	}

	req := AllocateRequest{Signature: []float64{0}, Features: mkFeatures(imp, 0.05, 61)}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string]func(){
		"AllocateInto": func() {
			if err := s.AllocateInto(ctx, req, ws); err != nil {
				t.Fatal(err)
			}
		},
		"body bytes to answer bytes": func() {
			ws.buf = append(ws.buf[:0], body...)
			if code, err := s.answerAllocate(ctx, ws); err != nil {
				t.Fatal(code, err)
			}
		},
	}
	for name, answer := range paths {
		// The first calls build the cluster's sub-store and grow the scratch.
		for i := 0; i < 8; i++ {
			answer()
			if ws.resp.Allocator != "DCTA" || ws.resp.Mode != ModeNormal || ws.resp.Cache != CacheBypass {
				t.Fatalf("%s warmup %d: %+v", name, i, ws.resp)
			}
		}
		if avg := testing.AllocsPerRun(200, answer); avg != 0 {
			t.Fatalf("DCTA allocate, %s: %.2f allocs/op, want 0", name, avg)
		}
	}
	if st := s.Stats(); st.DCTABypass != st.Allocates {
		t.Fatalf("not every answer was DCTA's: %+v", st)
	}
}

// TestWarmAllocateZeroAllocsWire extends the contract across the codec: from
// the body bytes of a feature-carrying request to the answer's bytes —
// everything the handler does between its socket read and its socket write —
// a warm allocate on the crl arm, features and all, still allocates nothing.
func TestWarmAllocateZeroAllocsWire(t *testing.T) {
	s, ws := zeroAllocServer(t, fastConfig())
	ctx := context.Background()
	body, err := json.Marshal(AllocateRequest{Signature: []float64{0}, Features: mkFeatures(clusterImportance(0), 0.05, 61)})
	if err != nil {
		t.Fatal(err)
	}
	answer := func() {
		ws.buf = append(ws.buf[:0], body...)
		if code, err := s.answerAllocate(ctx, ws); err != nil {
			t.Fatal(code, err)
		}
	}
	for i := 0; i < 8; i++ {
		answer()
	}
	if avg := testing.AllocsPerRun(200, answer); avg != 0 {
		t.Fatalf("warm allocate, body bytes to answer bytes: %.2f allocs/op, want 0", avg)
	}
	var resp AllocateResponse
	if err := json.Unmarshal(ws.buf, &resp); err != nil || resp.Allocator != "CRL" || len(ws.req.Features) != 6 {
		t.Fatalf("answer %s: %v", ws.buf, err)
	}
}
