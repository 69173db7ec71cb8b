package serve

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
)

// Non-finite numbers in requests must be stopped at the trust boundary:
// a NaN signature poisons every nearest-neighbor distance, and a NaN
// feature flows into knapsack feasibility comparisons where every
// branch involving it is silently false.
func TestAllocateRejectsNonFinite(t *testing.T) {
	s := newTestServer(t, fastConfig())
	ctx := context.Background()
	cases := []AllocateRequest{
		{Signature: []float64{math.NaN()}},
		{Signature: []float64{math.Inf(1)}},
		{Signature: []float64{0}, Features: [][]float64{{1, math.NaN()}}},
		{Signature: []float64{0}, Features: [][]float64{{1}, {math.Inf(-1)}}},
	}
	for _, req := range cases {
		_, err := s.Allocate(ctx, req)
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("Allocate(%+v) err = %v, want ErrNonFinite", req, err)
		}
		if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("ErrNonFinite must wrap ErrBadRequest for the HTTP 400 mapping: %v", err)
		}
	}
}

func TestFeedbackRejectsNonFinite(t *testing.T) {
	s := newTestServer(t, fastConfig())
	ctx := context.Background()
	okFeatures := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}}
	cases := []FeedbackRequest{
		{Features: [][]float64{{math.NaN(), 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}},
			Allocation: []int{0, 0, 1, 1, -1, -1}},
		{Features: okFeatures, Allocation: []int{0, 0, 1, 1, -1, -1},
			Signature: []float64{math.Inf(1)}},
		{Features: okFeatures, Allocation: []int{0, 0, 1, 1, -1, -1},
			Signature: []float64{0}, Importance: []float64{math.NaN()}},
	}
	for _, req := range cases {
		_, err := s.Feedback(ctx, req)
		if !errors.Is(err, ErrNonFinite) || !errors.Is(err, ErrBadRequest) {
			t.Fatalf("Feedback err = %v, want ErrNonFinite wrapped in ErrBadRequest", err)
		}
	}
}

// narrow drops the last entry of every row: features one column short of
// the Table-I width the local model is fitted on.
func narrow(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for j, row := range m {
		out[j] = row[:len(row)-1]
	}
	return out
}

// TestFeedbackRejectsFeatureWidth: feature rows that are ragged, or not as
// wide as the served model's (before any fit, the window's), are a bad
// request, and nothing of them enters the window — so the next refit still
// fits and publishes.
func TestFeedbackRejectsFeatureWidth(t *testing.T) {
	cfg := fastConfig()
	cfg.RefitEvery = 12
	s := newTestServer(t, cfg)
	ctx := context.Background()
	imp := clusterImportance(0)
	executed := []int{0, 0, 1, core.Unassigned, core.Unassigned, 1}
	if _, err := s.Feedback(ctx, FeedbackRequest{Features: mkFeatures(imp, 0.05, 1), Allocation: executed}); err != nil {
		t.Fatal(err)
	}
	ragged := mkFeatures(imp, 0.05, 2)
	ragged[3] = ragged[3][:5]
	for name, feats := range map[string][][]float64{
		"narrow": narrow(mkFeatures(imp, 0.05, 2)),
		"ragged": ragged,
	} {
		if _, err := s.Feedback(ctx, FeedbackRequest{Features: feats, Allocation: executed}); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s rows: err = %v, want ErrBadRequest", name, err)
		}
	}
	fb, err := s.Feedback(ctx, FeedbackRequest{Features: mkFeatures(imp, 0.05, 3), Allocation: executed})
	if err != nil {
		t.Fatalf("refit after rejected rows: %v", err)
	}
	if !fb.Refitted || fb.WindowSize != 12 {
		t.Fatalf("feedback = %+v, want a refit over a window of 12", fb)
	}

	// A served model that no feedback has refit sets the width too.
	var samples []alloc.LocalSample
	for i := int64(0); i < 2; i++ {
		samples = append(samples, alloc.SamplesFromDecision(mkFeatures(imp, 0.05, 10+i), executed)...)
	}
	boot := alloc.NewLocalModel(1)
	if err := boot.Fit(samples); err != nil {
		t.Fatal(err)
	}
	s2, err := NewServer(testTemplate(), twoClusterStore(t), boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Feedback(ctx, FeedbackRequest{Features: narrow(mkFeatures(imp, 0.05, 4)), Allocation: executed}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("rows narrower than the boot model: err = %v, want ErrBadRequest", err)
	}
	if got := s2.Stats().Feedbacks; got != 0 {
		t.Fatalf("feedbacks = %d, want 0", got)
	}
}

// TestAllocateRejectsFeatureWidth: once the local model is fitted, a DCTA
// request whose rows are not as wide as the model's is a bad request, not a
// degraded answer; ragged rows are one even before.
func TestAllocateRejectsFeatureWidth(t *testing.T) {
	cfg := fastConfig()
	cfg.RefitEvery = 12
	s := newTestServer(t, cfg)
	ctx := context.Background()
	imp := clusterImportance(0)
	ragged := mkFeatures(imp, 0.05, 1)
	ragged[2] = ragged[2][:3]
	if _, err := s.Allocate(ctx, AllocateRequest{Signature: []float64{0}, Features: ragged}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("ragged rows before a fit: err = %v, want ErrBadRequest", err)
	}
	executed := []int{0, 0, 1, core.Unassigned, core.Unassigned, 1}
	for i := int64(0); i < 2; i++ {
		if _, err := s.Feedback(ctx, FeedbackRequest{Features: mkFeatures(imp, 0.05, 20+i), Allocation: executed}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := s.Allocate(ctx, AllocateRequest{Signature: []float64{0}, Features: mkFeatures(imp, 0.05, 5)})
	if err != nil || resp.Allocator != "DCTA" {
		t.Fatalf("full-width rows after the fit: %+v, %v; want a DCTA answer", resp, err)
	}
	for _, allocator := range []string{"", "dcta"} {
		req := AllocateRequest{Signature: []float64{0}, Features: narrow(mkFeatures(imp, 0.05, 5)), Allocator: allocator}
		if resp, err := s.Allocate(ctx, req); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("allocator %q, narrow rows: %+v, %v; want ErrBadRequest", allocator, resp, err)
		}
	}
	if got := s.Stats().DegradedCount; got != 0 {
		t.Fatalf("degraded answers = %d, want 0", got)
	}
}
