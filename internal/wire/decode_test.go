package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// paperAllocate is a paper-scale allocate body as bench/gen.go writes it: a
// 'g'-formatted signature, then the json.Marshal of a tasks × dims feature
// matrix, measurements at full precision alternating with small integers as
// in Table I (50 × 12 ≈ 6 KB).
func paperAllocate(tasks, dims int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	body := []byte(`{"signature":[`)
	for d := 0; d < 8; d++ {
		if d > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendFloat(body, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(9)-4)), 'g', -1, 64)
	}
	features := make([][]float64, tasks)
	for j := range features {
		for k := 0; k < dims; k++ {
			v := float64(rng.Intn(3))
			if k%2 == 0 {
				v = rng.NormFloat64()
			}
			features[j] = append(features[j], v)
		}
	}
	featJSON, _ := json.Marshal(features)
	body = append(body, `],"features":`...)
	body = append(body, featJSON...)
	return append(body, '}')
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// corpus is the seed corpus of the three body fuzz targets and the input of
// the table-driven properties: the body shapes bench/gen.go and
// encoding/json emit, every tightening, malformed bodies around each
// production of the grammar, and every edge literal of number_test.go.
func corpus() [][]byte {
	bodies := [][]byte{
		// bench/gen.go: hand-appended members, 'g' floats.
		paperAllocate(50, 12, 1),
		paperAllocate(3, 2, 2),
		[]byte(`{"signature":[0.25,-1.5e-05,3e+06],"allocator":"crl"}`),
		[]byte(`{"signature":[0.5],"features":[[1,2],[3,4]],"allocation":[0,-1],"importance":[0.9,0.1],"seq":42}`),
		// The examples and the tests: json.Marshal of the request structs
		// (a nil signature is "signature":null).
		mustMarshal(AllocateRequest{Signature: []float64{0, 1e-7, 1e21, -0.0}, Features: [][]float64{{1}, {}}, Allocator: "dcta"}),
		mustMarshal(FeedbackRequest{Features: [][]float64{{1, 2}}, Allocation: []int{3}, AddToStore: true, Seq: -7}),
		append(mustMarshal(AllocateRequest{Signature: []float64{1}}), '\n'),
		[]byte(" \t\r\n{ \"signature\" : [ 1 , 2 ] , \"allocator\" : \"auto\" } \n"),
		[]byte(`{}`),
		[]byte(`{"signature":[],"features":[]}`),
		[]byte(`{"signature":null,"features":null,"allocator":null}`),
		[]byte(`{"add_to_store":false,"seq":0,"importance":[1E2,-0,0.0e-0]}`),
		[]byte(`{"allocator":"dcta\n\ud83d\ude00😀\ud800x\u00e9\udc00\/"}`),
		[]byte("{\"allocator\":\"\xff\xc0caf\xc3\xa9\"}"),
		// The tightenings.
		[]byte(`{"signature":[null]}`),
		[]byte(`{"signature":[1],"features":[[1],null]}`),
		[]byte(`{"features":[[null,2]]}`),
		[]byte(`{"allocation":[null]}`),
		[]byte(`{"Signature":[1]}`),
		[]byte(`{"SIGNATURE":[1],"ſignature":[2]}`),
		[]byte(`{"sign\u0061ture":[1]}`),
		[]byte(`{"signature":[1],"signature":[2]}`),
		[]byte(`{"signature":null,"signature":[2]}`),
		[]byte(`{"signature":[1]}{"signature":[2]}`),
		[]byte(`{"signature":[1]} x`),
		[]byte(`null`),
		// Rejected by both.
		[]byte(``),
		[]byte(`{not json`),
		[]byte(`[1,2]`),
		[]byte(`"signature"`),
		[]byte(`{"signature":[1],"bogus":1}`),
		[]byte(`{"signature":[1],}`),
		[]byte(`{"signature":[1,]}`),
		[]byte(`{"signature":[1 2]}`),
		[]byte(`{"signature":[01]}`),
		[]byte(`{"signature":[1.]}`),
		[]byte(`{"signature":[.5]}`),
		[]byte(`{"signature":[1e]}`),
		[]byte(`{"signature":[+1]}`),
		[]byte(`{"signature":[-]}`),
		[]byte(`{"signature":[1e999]}`),
		[]byte(`{"signature":[NaN]}`),
		[]byte(`{"signature":[Infinity]}`),
		[]byte(`{"signature":["1"]}`),
		[]byte(`{"signature":1}`),
		[]byte(`{"signature":[[1]]}`),
		[]byte(`{"features":[1]}`),
		[]byte(`{"features":[[[1]]]}`),
		[]byte(`{"signature":[1]`),
		[]byte(`{"signature"`),
		[]byte(`{"signature":`),
		[]byte(`{"signature" [1]}`),
		[]byte(`{"allocator":5}`),
		[]byte(`{"allocator":"a` + "\n" + `"}`),
		[]byte(`{"allocator":"\x"}`),
		[]byte(`{"allocator":"\u12g4"}`),
		[]byte(`{"allocator":"open`),
		[]byte(`{"allocation":[1.0]}`),
		[]byte(`{"allocation":[1e2]}`),
		[]byte(`{"allocation":[9223372036854775808]}`),
		[]byte(`{"seq":1.5}`),
		[]byte(`{"seq":"1"}`),
		[]byte(`{"seq":-9223372036854775809}`),
		[]byte(`{"add_to_store":1}`),
		[]byte(`{"add_to_store":"true"}`),
		[]byte(`{"add_to_store":tru}`),
		[]byte(`{"signature":nul}`),
		[]byte("{\"signa\x00ture\":[1]}"),
		// Well formed, wrong type outside the signature: the router keys
		// these, the shard names the member it rejects.
		[]byte(`{"signature":[1],"features":"x"}`),
		[]byte(`{"signature":[1],"features":{"a":[1,{"b":null}],"c":"é"},"allocator":[true,false]}`),
		[]byte(`{"signature":[1],"importance":[1e999]}`),
		[]byte(`{"signature":[1],"allocator":` + strings.Repeat("[", 40) + strings.Repeat("]", 40) + `}`),
	}
	// Each edge literal as a signature element and as a seq.
	for _, lit := range edgeLiterals {
		bodies = append(bodies, []byte(`{"signature":[0.5,`+lit+`]}`), []byte(`{"seq":`+lit+`}`))
	}
	return bodies
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// stdlibDecode is the decoder the handlers used before this package.
func stdlibDecode(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// tightenings are the only reasons the decoder may give for rejecting a body
// encoding/json accepts. Given that the stdlib accepted the body — so it is
// well-formed JSON whose members all fold onto known names — each message can
// only mean what the package documentation lists.
var tightenings = []string{
	"null array element",
	"unknown member", // a name that only matches case-folded
	"escape sequence in a member name",
	"duplicate member",
	"body is not an object", // a bare null
	"data after the closing brace",
}

func isTightening(err error) bool {
	var e *Error
	if !errors.As(err, &e) {
		return false
	}
	for _, msg := range tightenings {
		if strings.HasPrefix(e.Msg, msg) {
			return true
		}
	}
	return false
}

// checkDecode is the differential property of one decoder on one body: what
// it accepts the stdlib accepts, into a deeply and bitwise equal struct; what
// the stdlib rejects it rejects; and it rejects a body the stdlib accepts only
// for a documented tightening.
func checkDecode(t *testing.T, body []byte, got, want any, err error) {
	t.Helper()
	stdErr := stdlibDecode(body, want)
	switch {
	case err == nil && stdErr != nil:
		t.Fatalf("accepted %q, encoding/json rejects it: %v", body, stdErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%q decoded to\n%+v\nencoding/json to\n%+v", body, got, want)
	case err != nil && stdErr == nil && !isTightening(err):
		t.Fatalf("rejected %q (%v), encoding/json accepts it", body, err)
	}
}

func checkAllocate(t *testing.T, body []byte) {
	t.Helper()
	var got, want AllocateRequest
	err := DecodeAllocate(body, &got)
	checkDecode(t, body, &got, &want, err)
	if err == nil && !(sameBits(got.Signature, want.Signature) && sameRows(got.Features, want.Features)) {
		t.Fatalf("%q: floats differ in their bits", body)
	}
}

func checkFeedback(t *testing.T, body []byte) {
	t.Helper()
	var got, want FeedbackRequest
	err := DecodeFeedback(body, &got)
	checkDecode(t, body, &got, &want, err)
	if err == nil && !(sameBits(got.Signature, want.Signature) && sameRows(got.Features, want.Features) &&
		sameBits(got.Importance, want.Importance)) {
		t.Fatalf("%q: floats differ in their bits", body)
	}
}

// checkScan is the router ⇔ shard property on one body, for both kinds: the
// router extracts a signature exactly when the shard's decoder accepts the
// body's signature — the decoder accepts the body with that very signature,
// or faults it inside some other member's value. A body the scanner accepts
// is well-formed JSON.
func checkScan(t *testing.T, body []byte) {
	t.Helper()
	for _, kind := range []Kind{Allocate, Feedback} {
		var decoded []float64
		var decErr error
		if kind == Allocate {
			var req AllocateRequest
			decErr = DecodeAllocate(body, &req)
			decoded = req.Signature
		} else {
			var req FeedbackRequest
			decErr = DecodeFeedback(body, &req)
			decoded = req.Signature
		}
		sig, scanErr := ScanSignature(kind, body, nil)
		switch {
		case decErr == nil && scanErr != nil:
			t.Fatalf("kind %d: shard accepts %q, router does not: %v", kind, body, scanErr)
		case decErr == nil && !sameBits(sig, decoded):
			t.Fatalf("kind %d: %q: router signature %v, shard signature %v", kind, body, sig, decoded)
		case scanErr == nil && decErr != nil:
			var e *Error
			if !errors.As(decErr, &e) || e.Member == "" || e.Member == "signature" {
				t.Fatalf("kind %d: router keys %q, shard rejects its envelope or signature: %v", kind, body, decErr)
			}
		}
		if scanErr == nil && !json.Valid(body) {
			t.Fatalf("kind %d: router accepts malformed %q", kind, body)
		}
		if scanErr != nil && len(sig) != 0 {
			t.Fatalf("kind %d: %q: error with a signature %v", kind, body, sig)
		}
	}
}

func TestDecodeMatchesStdlibOnCorpus(t *testing.T) {
	for _, body := range corpus() {
		checkAllocate(t, body)
		checkFeedback(t, body)
	}
}

// TestRouterAndShardAgreeOnCorpus is the property behind the second bugfix:
// one scanner in both tiers means one verdict per body.
func TestRouterAndShardAgreeOnCorpus(t *testing.T) {
	for _, body := range corpus() {
		checkScan(t, body)
	}
}

// TestTightenings pins each input class encoding/json accepts and this
// decoder rejects — the complete list, per checkDecode.
func TestTightenings(t *testing.T) {
	cases := []struct {
		name, body, msg, member string
	}{
		{"null element", `{"signature":[1,null]}`, "null array element", "signature"},
		{"null row", `{"features":[[1],null]}`, "null array element", "features"},
		{"null in row", `{"features":[[null]]}`, "null array element", "features"},
		{"upper-case name", `{"Signature":[1]}`, "unknown member", ""},
		{"unicode-folded name", `{"ſignature":[1]}`, "unknown member", ""},
		{"escaped name", `{"sign\u0061ture":[1]}`, "escape sequence in a member name", ""},
		{"duplicate", `{"signature":[1],"signature":[1]}`, "duplicate member", ""},
		{"duplicate after null", `{"features":null,"features":[[1]]}`, "duplicate member", ""},
		{"second value", `{"signature":[1]}{}`, "data after the closing brace", ""},
		{"trailing garbage", `{"signature":[1]}]`, "data after the closing brace", ""},
		{"bare null", `null`, "body is not an object", ""},
	}
	for _, tc := range cases {
		var std AllocateRequest
		if err := stdlibDecode([]byte(tc.body), &std); err != nil {
			t.Errorf("%s: encoding/json rejects %s too: %v", tc.name, tc.body, err)
		}
		var req AllocateRequest
		err := DecodeAllocate([]byte(tc.body), &req)
		var e *Error
		if !errors.As(err, &e) || !strings.HasPrefix(e.Msg, tc.msg) || e.Member != tc.member {
			t.Errorf("%s: DecodeAllocate(%s) = %v, want %q in member %q", tc.name, tc.body, err, tc.msg, tc.member)
		}
		if _, err := ScanSignature(Allocate, []byte(tc.body), nil); err == nil && tc.member != "features" {
			t.Errorf("%s: ScanSignature accepts %s", tc.name, tc.body)
		}
	}
	// The feedback-only members tighten the same way.
	var fb FeedbackRequest
	if err := DecodeFeedback([]byte(`{"allocation":[0,null]}`), &fb); !isTightening(err) {
		t.Errorf("null allocation entry: %v", err)
	}
	if err := DecodeFeedback([]byte(`{"importance":[null]}`), &fb); !isTightening(err) {
		t.Errorf("null importance entry: %v", err)
	}
}

// TestKindsKeepTheirMembers: a feedback member on an allocate body is as
// unknown to the router as it is to the shard.
func TestKindsKeepTheirMembers(t *testing.T) {
	body := []byte(`{"signature":[1],"seq":3}`)
	if _, err := ScanSignature(Allocate, body, nil); err == nil {
		t.Error("allocate grammar accepted seq")
	}
	if sig, err := ScanSignature(Feedback, body, nil); err != nil || len(sig) != 1 {
		t.Errorf("feedback grammar: %v %v", sig, err)
	}
}

// TestDecodeAllocateReuse decodes a long request and then a shorter one into
// the same target: the arrays are reused and nothing of the first request
// stays visible.
func TestDecodeAllocateReuse(t *testing.T) {
	var req AllocateRequest
	if err := DecodeAllocate([]byte(`{"signature":[1,2,3],"features":[[1,2,3],[4,5,6]],"allocator":"dcta"}`), &req); err != nil {
		t.Fatal(err)
	}
	sig0, row0 := &req.Signature[0], &req.Features[0][0]
	if err := DecodeAllocate([]byte(`{"features":[[7]],"signature":[8]}`), &req); err != nil {
		t.Fatal(err)
	}
	want := AllocateRequest{Signature: []float64{8}, Features: [][]float64{{7}}}
	if !reflect.DeepEqual(req, want) {
		t.Fatalf("second decode = %+v", req)
	}
	if &req.Signature[0] != sig0 || &req.Features[0][0] != row0 {
		t.Fatal("backing arrays were not reused")
	}
	if err := DecodeAllocate([]byte(`{}`), &req); err != nil || len(req.Signature) != 0 || len(req.Features) != 0 {
		t.Fatalf("empty body after a full one: %+v, %v", req, err)
	}
}

func TestReadBody(t *testing.T) {
	src := bytes.Repeat([]byte("abc"), 1000)
	got, err := ReadBody(make([]byte, 5, 8)[:0], trickle{bytes.NewReader(src)})
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("ReadBody = %d bytes, %v", len(got), err)
	}
	if _, err := ReadBody(nil, failing{}); err == nil {
		t.Fatal("read error swallowed")
	}
}

// trickle hands out at most 7 bytes per Read, so ReadBody has to loop and grow.
type trickle struct{ r *bytes.Reader }

func (r trickle) Read(p []byte) (int, error) {
	if len(p) > 7 {
		p = p[:7]
	}
	return r.r.Read(p)
}

type failing struct{}

func (failing) Read([]byte) (int, error) { return 0, errors.New("boom") }
