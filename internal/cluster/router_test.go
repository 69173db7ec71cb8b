package cluster

import (
	"bytes"
	"testing"

	"repro/internal/serve"
	"repro/internal/wire"
)

// TestRouterNeedlesMatchWire pins the router's byte-scan classification to
// the bytes a shard actually sends (wire.AppendAllocateResponse, the shard's
// encoder): if a JSON member name, the encoder's layout or the mode constant
// changes, the per-shard degraded counter in /v1/stats must fail here rather
// than silently read zero.
func TestRouterNeedlesMatchWire(t *testing.T) {
	for _, tc := range []struct {
		mode, reason string
		degraded     bool
	}{
		{mode: serve.ModeNormal},
		{mode: serve.ModeDegraded, reason: serve.DegradedDraining, degraded: true},
		// The reason is an escaped string, so it cannot forge a mode.
		{mode: serve.ModeNormal, reason: `"mode":"degraded"`},
	} {
		body, err := wire.AppendAllocateResponse(nil, &wire.AllocateResponse{
			Allocation:          []int{0, -1, 2},
			Cluster:             3,
			Cache:               serve.CacheBypass,
			Allocator:           "CRL",
			Mode:                tc.mode,
			DegradedReason:      tc.reason,
			PredictedImportance: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if degraded := bytes.Contains(body, routerNeedleDegraded); degraded != tc.degraded {
			t.Errorf("%q: classified degraded=%v, want %v", body, degraded, tc.degraded)
		}
	}
}
