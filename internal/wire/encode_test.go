package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// stdlibEncode is what writeJSON sent for an allocate answer before this
// package: json.NewEncoder(w).Encode(&resp).
func stdlibEncode(r *AllocateResponse) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(r)
	return buf.Bytes(), err
}

func TestAppendAllocateResponseGolden(t *testing.T) {
	cases := []struct {
		resp AllocateResponse
		want string
	}{
		{AllocateResponse{Allocation: []int{0, -1, 8}, Cluster: 3, Cache: "hit", Allocator: "DCTA", Mode: "normal",
			PredictedImportance: 2.5, LatencyNanos: 6021},
			`{"allocation":[0,-1,8],"cluster":3,"cache":"hit","allocator":"DCTA","mode":"normal","predicted_importance":2.5,"latency_ns":6021}`},
		{AllocateResponse{Allocation: []int{}, Cache: "bypass", Allocator: "greedy-fallback", Mode: "degraded",
			DegradedReason: "training circuit open", TrainNanos: 17, LatencyNanos: -1},
			`{"allocation":[],"cluster":0,"cache":"bypass","allocator":"greedy-fallback","mode":"degraded","degraded_reason":"training circuit open","predicted_importance":0,"train_ns":17,"latency_ns":-1}`},
		{AllocateResponse{},
			`{"allocation":null,"cluster":0,"cache":"","allocator":"","mode":"","predicted_importance":0,"latency_ns":0}`},
		// The float format switches to exponent form below 1e-6 and from 1e21.
		{AllocateResponse{PredictedImportance: 1e-6}, `"predicted_importance":0.000001,`},
		{AllocateResponse{PredictedImportance: 9.99e-7}, `"predicted_importance":9.99e-7,`},
		{AllocateResponse{PredictedImportance: 1.5e-10}, `"predicted_importance":1.5e-10,`},
		{AllocateResponse{PredictedImportance: 999999999999999900000}, `"predicted_importance":999999999999999900000,`},
		{AllocateResponse{PredictedImportance: 1e21}, `"predicted_importance":1e+21,`},
		{AllocateResponse{PredictedImportance: -1e300}, `"predicted_importance":-1e+300,`},
		{AllocateResponse{PredictedImportance: math.Copysign(0, -1)}, `"predicted_importance":-0,`},
		{AllocateResponse{PredictedImportance: 0.30000000000000004}, `"predicted_importance":0.30000000000000004,`},
		// Strings escape as the stdlib Encoder's do, HTML characters included.
		{AllocateResponse{DegradedReason: "a\"b\\c<d>&" + "\n\t\b\f\r\x01\x7f\xff" + "é\u2028\u2029"},
			`"degraded_reason":"a\"b\\c\u003cd\u003e\u0026\n\t\b\f\r\u0001` + "\x7f" + `\ufffdé\u2028\u2029",`},
	}
	for _, tc := range cases {
		got, err := AppendAllocateResponse(nil, &tc.resp)
		if err != nil {
			t.Fatal(err)
		}
		std, err := stdlibEncode(&tc.resp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, std) {
			t.Errorf("got  %q\njson %q", got, std)
		}
		if tc.want[0] == '{' {
			tc.want += "\n"
		}
		if !bytes.Contains(got, []byte(tc.want)) {
			t.Errorf("got %q, want %q in it", got, tc.want)
		}
	}
}

// TestAppendAllocateResponseAppends: the answer goes after what dst holds.
func TestAppendAllocateResponseAppends(t *testing.T) {
	got, err := AppendAllocateResponse([]byte("xy"), &AllocateResponse{})
	if err != nil || !bytes.HasPrefix(got, []byte(`xy{"allocation":null`)) {
		t.Fatalf("%q, %v", got, err)
	}
}

func TestAppendAllocateResponseNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		resp := AllocateResponse{PredictedImportance: v}
		if _, err := stdlibEncode(&resp); err == nil {
			t.Fatalf("encoding/json encodes %v", v)
		}
		if out, err := AppendAllocateResponse([]byte("x"), &resp); !errors.Is(err, ErrNonFinite) || string(out) != "x" {
			t.Fatalf("%v: %q, %v", v, out, err)
		}
	}
}

// randomResponse draws a response whose float spans every magnitude and
// whose strings carry every class of byte the escaper distinguishes.
func randomResponse(rng *rand.Rand) AllocateResponse {
	str := func() string {
		alphabet := []string{"a", "hit", "degraded", `"`, `\`, "<", ">", "&", "\n", "\x00", "\x1f", "\x7f", "\x80", "\xff",
			"é", "\u2028", "\u2029", "\ufffd", "😀", "\xe2\x80"}
		var s string
		for n := rng.Intn(6); n > 0; n-- {
			s += alphabet[rng.Intn(len(alphabet))]
		}
		return s
	}
	float := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return math.Float64frombits(rng.Uint64()) // any bit pattern, NaN and Inf included
		case 1:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		case 2:
			return []float64{0, math.Copysign(0, -1), 1e-6, 1e21, math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0),
				math.MaxFloat64, math.SmallestNonzeroFloat64}[rng.Intn(8)]
		}
		return rng.Float64()
	}
	r := AllocateResponse{
		Cluster: rng.Intn(200) - 100, Cache: str(), Allocator: str(), Mode: str(), DegradedReason: str(),
		PredictedImportance: float(), TrainNanos: rng.Int63n(3) * rng.Int63(), LatencyNanos: rng.Int63() - rng.Int63(),
	}
	if n := rng.Intn(8); n > 0 {
		r.Allocation = make([]int, n-1)
		for i := range r.Allocation {
			r.Allocation[i] = rng.Intn(12) - 1
		}
	}
	return r
}

// TestAppendAllocateResponseQuick: for any response, the appended bytes are
// the stdlib Encoder's, and the two fail on the same inputs.
func TestAppendAllocateResponseQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 20000,
		Values: func(args []reflect.Value, rng *rand.Rand) {
			args[0] = reflect.ValueOf(randomResponse(rng))
		},
	}
	same := func(r AllocateResponse) bool {
		got, err := AppendAllocateResponse(nil, &r)
		std, stdErr := stdlibEncode(&r)
		if err != nil || stdErr != nil {
			return err != nil && stdErr != nil
		}
		return bytes.Equal(got, std)
	}
	if err := quick.Check(same, cfg); err != nil {
		t.Fatal(err)
	}
}
