package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

func postJSON(t *testing.T, client *http.Client, url string, body any, out any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decode %s: %v (%s)", url, err, buf.String())
		}
	}
	return resp.StatusCode, buf.String()
}

// TestHTTPEndToEnd drives all four endpoints through the real handler stack.
func TestHTTPEndToEnd(t *testing.T) {
	s := newTestServer(t, fastConfig())
	ts := httptest.NewServer(NewHandler(s, HTTPOptions{}))
	defer ts.Close()

	// healthz while live.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// Allocate twice: the first answer is already the normal one.
	var ar AllocateResponse
	for i := 0; i < 2; i++ {
		code, body := postJSON(t, ts.Client(), ts.URL+"/v1/allocate",
			AllocateRequest{Signature: []float64{0}}, &ar)
		if code != http.StatusOK {
			t.Fatalf("allocate %d = %d: %s", i, code, body)
		}
		if ar.Mode != ModeNormal || ar.Cache != CacheBypass || len(ar.Allocation) != 6 {
			t.Fatalf("allocate %d = %+v", i, ar)
		}
	}

	// Feedback.
	var fr FeedbackResponse
	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/feedback", FeedbackRequest{
		Signature:  []float64{0},
		Features:   mkFeatures(clusterImportance(0), 0.05, 9),
		Allocation: ar.Allocation,
	}, &fr)
	if code != http.StatusOK {
		t.Fatalf("feedback = %d: %s", code, body)
	}
	if fr.Samples != 6 {
		t.Fatalf("feedback = %+v", fr)
	}

	// Stats reflects the traffic.
	resp, err = ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Allocates != 2 || stats.Feedbacks != 1 || stats.DegradedCount != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Latency.Count != 2 || stats.Latency.P99 < stats.Latency.P50 {
		t.Fatalf("latency stats = %+v", stats.Latency)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	s := newTestServer(t, fastConfig())
	ts := httptest.NewServer(NewHandler(s, HTTPOptions{}))
	defer ts.Close()

	// Bad request body.
	resp, err := ts.Client().Post(ts.URL+"/v1/allocate", "application/json",
		bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d", resp.StatusCode)
	}

	// Unknown fields rejected.
	code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/allocate",
		map[string]any{"signature": []float64{0}, "bogus": 1}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown field = %d", code)
	}

	// The request grammar is tighter than encoding/json's (internal/wire):
	// each of these decoded, or half-decoded, before.
	for _, raw := range []string{
		`{"Signature":[0]}`,
		`{"signature":[0],"signature":[1]}`,
		`{"signature":[0]} {"signature":[1]}`,
		`{"signature":[0]}garbage`,
		`null`,
	} {
		for _, path := range []string{"/v1/allocate", "/v1/feedback"} {
			resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("POST %s %s = %d, want 400", path, raw, resp.StatusCode)
			}
		}
	}
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/feedback",
		map[string]any{"features": [][]float64{{1}}, "allocation": []int{0}, "allocator": "crl"}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("allocate member on a feedback body = %d", code)
	}

	// Validation error surfaces as 400.
	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/allocate",
		AllocateRequest{Signature: []float64{0}, Allocator: "bogus"}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown allocator = %d: %s", code, body)
	}

	// Wrong methods.
	for _, url := range []string{"/v1/allocate", "/v1/feedback"} {
		resp, err := ts.Client().Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s = %d", url, resp.StatusCode)
		}
	}
	resp, err = ts.Client().Post(ts.URL+"/v1/stats", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats = %d", resp.StatusCode)
	}
}

// TestHTTPNullDoesNotBleedAcrossRequests: the allocate handler decodes into a
// pooled workspace, and encoding/json leaves a reused slice element untouched
// on null — so an all-null body used to pass validation carrying the previous
// request's numbers and was answered as if it were that request. Serve request
// A, then the all-null body through the same workspace: it must be a 400.
func TestHTTPNullDoesNotBleedAcrossRequests(t *testing.T) {
	s := newTestServer(t, fastConfig())
	ws := s.getWS()
	s.wsPool.New = func() any { return ws } // every request gets this one
	h := NewHandler(s, HTTPOptions{})
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/allocate", strings.NewReader(body)))
		return rec
	}

	a := post(`{"signature":[1],"features":[[0.5,0.25],[0.125,4]]}`)
	var ar AllocateResponse
	if err := json.Unmarshal(a.Body.Bytes(), &ar); a.Code != http.StatusOK || err != nil || ar.Cluster != 1 {
		t.Fatalf("request A = %d %s (%v)", a.Code, a.Body, err)
	}
	if len(ws.req.Signature) != 1 || ws.req.Signature[0] != 1 || len(ws.req.Features) != 2 {
		t.Fatalf("request A did not go through the pinned workspace: %+v", ws.req)
	}
	for _, body := range []string{
		`{"signature":[null],"features":[[null,null],[null,null]]}`,
		`{"signature":[null]}`,
		`{"signature":[1],"features":[[null,null],[0.125,4]]}`,
		`{"signature":[1],"features":[null,null]}`,
	} {
		if rec := post(body); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "null") {
			t.Fatalf("%s after request A = %d %s, want a 400 naming the null", body, rec.Code, rec.Body)
		}
	}
	// A null for the whole member still means "absent".
	if rec := post(`{"signature":[1],"features":null}`); rec.Code != http.StatusOK {
		t.Fatalf("null member = %d %s", rec.Code, rec.Body)
	}
}

// TestHTTPOversizedBodyIsNotPooled: the 8 MB cap answers 400, and a workspace
// whose buffer grew past wire.MaxPooledBody is dropped instead of recycled.
func TestHTTPOversizedBodyIsNotPooled(t *testing.T) {
	s := newTestServer(t, fastConfig())
	ws := s.getWS()
	s.wsPool.New = func() any { return ws }
	h := NewHandler(s, HTTPOptions{})
	post := func(body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/allocate", strings.NewReader(body)))
		return rec.Code
	}
	pad := func(n int) string { return `{"signature":[0]` + strings.Repeat(" ", n) + `}` }
	if code := post(pad(wire.MaxBody)); code != http.StatusBadRequest {
		t.Fatalf("body over the cap = %d", code)
	}
	if code := post(pad(2 * wire.MaxPooledBody)); code != http.StatusOK {
		t.Fatalf("large body under the cap = %d", code)
	}
	if cap(ws.buf) <= wire.MaxPooledBody {
		t.Fatalf("buffer cap %d after a %d-byte body", cap(ws.buf), 2*wire.MaxPooledBody)
	}
	s.wsPool.New = func() any { return &allocWS{} }
	for i := 0; i < 8; i++ { // the grown workspace never comes back
		if got := s.getWS(); got == ws {
			t.Fatal("oversized workspace was returned to the pool")
		}
	}
}

// TestServeListenerGracefulDrain covers the SIGTERM path: canceling the serve
// context flips healthz to 503, rejects new work with 503, and returns once
// in-flight requests finish.
func TestServeListenerGracefulDrain(t *testing.T) {
	s := newTestServer(t, fastConfig())
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- ListenAndServe(ctx, "127.0.0.1:0", s, HTTPOptions{DrainTimeout: 5 * time.Second},
			func(a net.Addr) { addrc <- a.String() })
	}()
	base := "http://" + <-addrc

	var ar AllocateResponse
	if code, body := postJSON(t, http.DefaultClient, base+"/v1/allocate",
		AllocateRequest{Signature: []float64{1}}, &ar); code != http.StatusOK {
		t.Fatalf("allocate before drain = %d: %s", code, body)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("drain returned %v", err)
	}
	// The in-process server object is now draining: allocates keep answering
	// but through the degraded path.
	resp, err := s.Allocate(context.Background(), AllocateRequest{Signature: []float64{1}})
	if err != nil {
		t.Fatalf("allocate after drain: %v", err)
	}
	if resp.Mode != ModeDegraded || resp.DegradedReason != DegradedDraining {
		t.Fatalf("post-drain mode=%q reason=%q, want degraded/draining", resp.Mode, resp.DegradedReason)
	}
	if _, err := s.Feedback(context.Background(), FeedbackRequest{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain feedback err = %v", err)
	}
}
