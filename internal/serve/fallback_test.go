package serve

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
)

// capturedImportance sums the cluster's true importance over assigned tasks —
// the yardstick for the degraded-vs-normal acceptance bar.
func capturedImportance(allocation []int, cluster int) float64 {
	imp := clusterImportance(cluster)
	var v float64
	for j, proc := range allocation {
		if proc != core.Unassigned {
			v += imp[j]
		}
	}
	return v
}

// TestFallbackAcceptance: a draining server's degraded path still answers,
// the answer is feasible, and it captures at least 70% of the importance the
// normal crl answer captures on the same request.
func TestFallbackAcceptance(t *testing.T) {
	ctx := context.Background()
	for cluster := 0; cluster < 2; cluster++ {
		req := AllocateRequest{Signature: []float64{float64(cluster)}}

		healthy := newTestServer(t, fastConfig())
		warm, err := healthy.Allocate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Mode != ModeNormal {
			t.Fatalf("healthy answer mode = %q", warm.Mode)
		}

		// A draining server answers the same request from the fallback.
		broken := newTestServer(t, fastConfig())
		broken.Drain()
		deg, err := broken.Allocate(ctx, req)
		if err != nil {
			t.Fatalf("degraded path errored: %v", err)
		}
		if deg.Mode != ModeDegraded || deg.DegradedReason != DegradedDraining {
			t.Fatalf("mode=%q reason=%q, want degraded/draining", deg.Mode, deg.DegradedReason)
		}
		if deg.Cache != CacheBypass {
			t.Fatalf("degraded cache = %q, want %q", deg.Cache, CacheBypass)
		}

		// Feasibility under the true cluster environment.
		prob := broken.problemWithImportance(clusterImportance(cluster))
		if err := prob.CheckFeasible(deg.Allocation); err != nil {
			t.Fatalf("degraded allocation infeasible: %v", err)
		}

		// Quality bar: ≥70% of the normal answer's captured importance.
		warmV := capturedImportance(warm.Allocation, cluster)
		degV := capturedImportance(deg.Allocation, cluster)
		if degV < 0.7*warmV {
			t.Fatalf("cluster %d: degraded captures %.3f < 70%% of warm %.3f (%v vs %v)",
				cluster, degV, warmV, deg.Allocation, warm.Allocation)
		}

		if got := broken.Stats().DegradedCount; got != 1 {
			t.Fatalf("DegradedCount = %d, want 1", got)
		}
	}
}

// TestFallbackUsesLocalModelWhenFitted checks the degraded path keeps the
// DCTA shape: with a fitted local model and features supplied, the combined
// scores flow through CombineScores without erroring, and the answer stays
// feasible.
func TestFallbackUsesLocalModelWhenFitted(t *testing.T) {
	ctx := context.Background()
	cfg := fastConfig()
	cfg.RefitEvery = 4
	s := newTestServer(t, cfg)
	// Fit the local model through the normal feedback path.
	imp := clusterImportance(0)
	for i := 0; i < 6; i++ {
		if _, err := s.Feedback(ctx, FeedbackRequest{
			Signature:  []float64{0.01 * float64(i)},
			Features:   mkFeatures(imp, 0.05, int64(40+i)),
			Allocation: []int{0, 0, 1, 1, core.Unassigned, core.Unassigned},
			Importance: imp,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if local := s.localModel(); local == nil || !local.Fitted() {
		t.Skip("local model did not fit under this refit schedule")
	}
	s.Drain()
	resp, err := s.Allocate(ctx, AllocateRequest{
		Signature: []float64{0},
		Features:  mkFeatures(imp, 0.05, 99),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Mode != ModeDegraded {
		t.Fatalf("mode = %q", resp.Mode)
	}
	prob := s.problemWithImportance(imp)
	if err := prob.CheckFeasible(resp.Allocation); err != nil {
		t.Fatal(err)
	}
}

// TestFallbackValidationStillRejects proves degraded mode never swallows
// malformed requests: validation errors stay 4xx-class while the server
// drains and answers every valid request degraded.
func TestFallbackValidationStillRejects(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, fastConfig())
	s.Drain()
	cases := []AllocateRequest{
		{},                           // empty signature
		{Signature: []float64{0, 1}}, // wrong dimension
		{Signature: []float64{0}, Allocator: "nope"},
		{Signature: []float64{0}, Allocator: "dcta"}, // no features/local model
	}
	for i, req := range cases {
		if _, err := s.Allocate(ctx, req); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("case %d: err = %v, want ErrBadRequest", i, err)
		}
	}
}
