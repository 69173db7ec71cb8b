package serve

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
)

// sameAnswer fails unless a draining server's answer is the normal answer
// relabelled: the same allocation, cluster, allocator and predicted
// importance, in degraded mode with reason draining.
func sameAnswer(t *testing.T, normal, drained *AllocateResponse) {
	t.Helper()
	if normal.Mode != ModeNormal || normal.DegradedReason != "" {
		t.Fatalf("normal answer mode=%q reason=%q", normal.Mode, normal.DegradedReason)
	}
	if drained.Mode != ModeDegraded || drained.DegradedReason != DegradedDraining || drained.Cache != CacheBypass {
		t.Fatalf("draining answer mode=%q reason=%q cache=%q, want degraded/draining/bypass",
			drained.Mode, drained.DegradedReason, drained.Cache)
	}
	if drained.Cluster != normal.Cluster || drained.Allocator != normal.Allocator ||
		math.Float64bits(drained.PredictedImportance) != math.Float64bits(normal.PredictedImportance) {
		t.Fatalf("draining answer %+v, normal %+v", drained, normal)
	}
	if len(drained.Allocation) != len(normal.Allocation) {
		t.Fatalf("draining answer has %d entries, normal %d", len(drained.Allocation), len(normal.Allocation))
	}
	for j := range normal.Allocation {
		if drained.Allocation[j] != normal.Allocation[j] {
			t.Fatalf("task %d: draining answer on %d, normal on %d", j, drained.Allocation[j], normal.Allocation[j])
		}
	}
}

// TestFallbackAcceptance: a draining server still answers, and its answer is
// the normal crl answer to the same request, labelled degraded.
func TestFallbackAcceptance(t *testing.T) {
	ctx := context.Background()
	for cluster := 0; cluster < 2; cluster++ {
		req := AllocateRequest{Signature: []float64{float64(cluster)}}
		s := newTestServer(t, fastConfig())
		normal, err := s.Allocate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		s.Drain()
		drained, err := s.Allocate(ctx, req)
		if err != nil {
			t.Fatalf("draining allocate errored: %v", err)
		}
		sameAnswer(t, normal, drained)
		if drained.Allocator != "CRL" {
			t.Fatalf("allocator %q, want CRL", drained.Allocator)
		}
		if st := s.Stats(); st.DegradedCount != 1 || st.Allocates != 2 {
			t.Fatalf("stats: %d degraded of %d allocates, want 1 of 2", st.DegradedCount, st.Allocates)
		}
	}
}

// TestFallbackUsesLocalModelWhenFitted: with the local model fitted and
// features supplied, a draining server answers with the normal DCTA
// decision, labelled degraded, and does not count it as a normal DCTA answer.
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
		t.Fatal("local model did not fit under this refit schedule")
	}
	req := AllocateRequest{Signature: []float64{0}, Features: mkFeatures(imp, 0.05, 99)}
	normal, err := s.Allocate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	s.Drain()
	drained, err := s.Allocate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, normal, drained)
	if drained.Allocator != "DCTA" {
		t.Fatalf("allocator %q, want DCTA", drained.Allocator)
	}
	if st := s.Stats(); st.DCTABypass != 1 || st.DegradedCount != 1 {
		t.Fatalf("stats: %d DCTA, %d degraded; want 1 and 1", st.DCTABypass, st.DegradedCount)
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
