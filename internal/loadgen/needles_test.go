package loadgen

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/serve"
)

// TestNeedlesMatchWire pins the classification needles against the real
// serializer: if AllocateResponse's JSON tags or the outcome constants ever
// change, the warm loop's byte-scan classification must fail loudly here
// rather than silently reporting a 0% hit rate.
func TestNeedlesMatchWire(t *testing.T) {
	hit, err := json.Marshal(serve.AllocateResponse{Cache: serve.CacheHit, Mode: serve.ModeNormal})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(hit, needleCacheHit) {
		t.Fatalf("hit needle %q missing from wire %q", needleCacheHit, hit)
	}
	if bytes.Contains(hit, needleDegraded) {
		t.Fatalf("normal answer matched degraded needle: %q", hit)
	}
	warm, _ := json.Marshal(serve.AllocateResponse{Cache: serve.CacheWarm, Mode: serve.ModeNormal})
	if !bytes.Contains(warm, needleCacheWarm) {
		t.Fatalf("warm needle %q missing from wire %q", needleCacheWarm, warm)
	}
	repl, _ := json.Marshal(serve.AllocateResponse{Cache: serve.CacheReplica, Mode: serve.ModeNormal})
	if !bytes.Contains(repl, needleCacheReplica) {
		t.Fatalf("replica needle %q missing from wire %q", needleCacheReplica, repl)
	}
	deg, _ := json.Marshal(serve.AllocateResponse{Cache: serve.CacheBypass, Mode: serve.ModeDegraded})
	if !bytes.Contains(deg, needleDegraded) {
		t.Fatalf("degraded needle %q missing from wire %q", needleDegraded, deg)
	}
	if bytes.Contains(deg, needleCacheHit) || bytes.Contains(deg, needleCacheWarm) {
		t.Fatalf("degraded answer matched a hit needle: %q", deg)
	}
	// A bypass answer is warm exactly when it is not degraded: DCTA consults
	// no policy and trains nothing; the fallback is not a warm answer.
	dcta, _ := json.Marshal(serve.AllocateResponse{Cache: serve.CacheBypass, Mode: serve.ModeNormal})
	if !answeredWarm(dcta) || answeredWarm(deg) || !answeredWarm(hit) || !answeredWarm(repl) {
		t.Fatalf("answeredWarm: dcta %v degraded %v hit %v replica %v, want true false true true",
			answeredWarm(dcta), answeredWarm(deg), answeredWarm(hit), answeredWarm(repl))
	}
	miss, _ := json.Marshal(serve.AllocateResponse{Cache: serve.CacheMiss, Mode: serve.ModeNormal})
	if answeredWarm(miss) {
		t.Fatalf("a cold miss classified warm: %q", miss)
	}
}
