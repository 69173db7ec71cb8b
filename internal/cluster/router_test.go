package cluster

import (
	"testing"

	"repro/internal/serve"
	"repro/internal/wire"
)

// TestRouterNeedlesMatchWire pins the router's byte-scan classification to
// the bytes a shard actually sends (wire.AppendAllocateResponse, the shard's
// encoder): if a JSON member name, the encoder's layout or an outcome
// constant changes, the per-shard hits and degraded counters in /v1/stats
// must fail here rather than silently read zero.
func TestRouterNeedlesMatchWire(t *testing.T) {
	for _, tc := range []struct {
		cache, mode, reason string
		hit, degraded       bool
	}{
		{cache: serve.CacheHit, mode: serve.ModeNormal, hit: true},
		{cache: serve.CacheWarm, mode: serve.ModeNormal, hit: true},
		{cache: serve.CacheReplica, mode: serve.ModeNormal, hit: true},
		{cache: serve.CacheSpeculative, mode: serve.ModeNormal, hit: true},
		{cache: serve.CacheMiss, mode: serve.ModeNormal},
		{cache: serve.CacheCoalesced, mode: serve.ModeNormal},
		{cache: serve.CacheExpired, mode: serve.ModeNormal},
		{cache: serve.CacheDrift, mode: serve.ModeNormal},
		// A DCTA answer consults no policy: neither a hit nor degraded.
		{cache: serve.CacheBypass, mode: serve.ModeNormal},
		{cache: serve.CacheBypass, mode: serve.ModeDegraded, reason: "training failed", degraded: true},
		// The reason is an escaped string, so it cannot forge a hit.
		{cache: serve.CacheBypass, mode: serve.ModeDegraded, reason: `"cache":"hit"`, degraded: true},
	} {
		body, err := wire.AppendAllocateResponse(nil, &wire.AllocateResponse{
			Allocation:          []int{0, -1, 2},
			Cluster:             3,
			Cache:               tc.cache,
			Allocator:           "CRL",
			Mode:                tc.mode,
			DegradedReason:      tc.reason,
			PredictedImportance: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if hit, degraded := classifyAnswer(body); hit != tc.hit || degraded != tc.degraded {
			t.Errorf("%q: classified hit=%v degraded=%v, want %v %v", body, hit, degraded, tc.hit, tc.degraded)
		}
	}
}
