//go:build !race

// The race detector instruments allocations, so testing.AllocsPerRun only
// means something without it; CI runs these in its non-race step.

package wire

import "testing"

// TestWarmAllocateZeroAllocsDecode: decoding a paper-scale allocate body
// (50 × 12 features, ~6 KB) into a target that has held one before allocates
// nothing — floats are parsed from the body in place, rows are reused, the
// allocator names are interned.
func TestWarmAllocateZeroAllocsDecode(t *testing.T) {
	bodies := [][]byte{paperAllocate(50, 12, 1), paperAllocate(50, 12, 2), []byte(`{"signature":[1,2,3],"allocator":"crl"}`)}
	var req AllocateRequest
	decode := func() {
		for _, body := range bodies {
			if err := DecodeAllocate(body, &req); err != nil {
				t.Fatal(err)
			}
		}
	}
	decode()
	if avg := testing.AllocsPerRun(100, decode); avg != 0 {
		t.Fatalf("warm DecodeAllocate: %.2f allocs/op, want 0", avg)
	}
}

func TestWarmAllocateZeroAllocsEncode(t *testing.T) {
	resp := AllocateResponse{Allocation: make([]int, 50), Cluster: 41, Cache: "hit", Allocator: "DCTA", Mode: "normal",
		PredictedImportance: 3.0517578125, LatencyNanos: 6021}
	buf, err := AppendAllocateResponse(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() { buf, _ = AppendAllocateResponse(buf[:0], &resp) }); avg != 0 {
		t.Fatalf("warm AppendAllocateResponse: %.2f allocs/op, want 0", avg)
	}
}

func TestWarmAllocateZeroAllocsScanSignature(t *testing.T) {
	body := paperAllocate(50, 12, 1)
	sig, err := ScanSignature(Allocate, body, nil)
	if err != nil || len(sig) != 8 {
		t.Fatalf("%v, %v", sig, err)
	}
	if avg := testing.AllocsPerRun(100, func() { sig, _ = ScanSignature(Allocate, body, sig) }); avg != 0 {
		t.Fatalf("warm ScanSignature: %.2f allocs/op, want 0", avg)
	}
}
