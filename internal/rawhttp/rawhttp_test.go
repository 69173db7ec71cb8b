package rawhttp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// allocBody mirrors serve.AllocateRequest's wire shape; the real type lives
// in a package that now imports this one, so the test keeps its own copy.
type allocBody struct {
	Signature []float64 `json:"signature"`
}

// fastServer starts a net/http server (the same stack dcta-server uses) and
// returns its host:port.
func fastServer(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

func TestConnRoundTripAndKeepAlive(t *testing.T) {
	var hits atomic.Int64
	var conns atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/allocate", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		var req allocBody
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, `{"cache":"hit","mode":"normal","sig":%g}`, req.Signature[0])
	})
	srv := httptest.NewUnstartedServer(mux)
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)

	conn, err := Dial(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	for i := 0; i < 5; i++ {
		body, _ := json.Marshal(allocBody{Signature: []float64{float64(i)}})
		code, resp, err := conn.Do(BuildFrame("/v1/allocate", body))
		if err != nil {
			t.Fatalf("do %d: %v", i, err)
		}
		if code != http.StatusOK {
			t.Fatalf("do %d: HTTP %d", i, code)
		}
		want := fmt.Sprintf(`"sig":%d`, i)
		if !bytes.Contains(resp, []byte(want)) {
			t.Fatalf("do %d: body %q missing %q", i, resp, want)
		}
	}
	if got := hits.Load(); got != 5 {
		t.Fatalf("server saw %d requests, want 5", got)
	}
	// All five requests must have ridden ONE TCP connection: the whole point
	// of the fast client is that the closed loop never pays connection churn.
	if got := conns.Load(); got != 1 {
		t.Fatalf("server saw %d connections, want 1", got)
	}
}

func TestConnNonOKStatus(t *testing.T) {
	addr := fastServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad request", http.StatusBadRequest)
	}))
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	code, body, err := conn.Do(BuildFrame("/v1/allocate", []byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusBadRequest {
		t.Fatalf("code = %d, want 400", code)
	}
	if !bytes.Contains(body, []byte("bad request")) {
		t.Fatalf("body = %q", body)
	}
}

func TestConnChunkedResponse(t *testing.T) {
	addr := fastServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Flushing before the handler returns forces chunked encoding.
		fl := w.(http.Flusher)
		fmt.Fprint(w, `{"first":1,`)
		fl.Flush()
		fmt.Fprint(w, `"second":2}`)
	}))
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 2; i++ {
		code, body, err := conn.Do(BuildFrame("/", []byte(`{}`)))
		if err != nil {
			t.Fatalf("do %d: %v", i, err)
		}
		if code != http.StatusOK || string(body) != `{"first":1,"second":2}` {
			t.Fatalf("do %d: %d %q", i, code, body)
		}
	}
}

func TestConnRedialsAfterServerClose(t *testing.T) {
	addr := fastServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/close" {
			w.Header().Set("Connection", "close")
		}
		fmt.Fprint(w, `{}`)
	}))
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if code, _, err := conn.Do(BuildFrame("/close", []byte(`{}`))); err != nil || code != 200 {
		t.Fatalf("close request: %d %v", code, err)
	}
	// The server hung up; the next Do must transparently redial.
	if code, _, err := conn.Do(BuildFrame("/", []byte(`{}`))); err != nil || code != 200 {
		t.Fatalf("after close: %d %v", code, err)
	}
}

func TestAppendFrameMatchesBuildFrame(t *testing.T) {
	body := []byte(`{"allocation":[1,2,3]}`)
	built := BuildFrame("/v1/feedback", body)
	appended := AppendFrame(make([]byte, 7), "/v1/feedback", body)
	if !bytes.Equal(built, appended) {
		t.Fatalf("frames differ:\n%q\n%q", built, appended)
	}
}

// lyingPeer accepts one connection, reads the request head, writes head
// (a response whose framing claims more than it carries) and hangs up.
func lyingPeer(t *testing.T, head string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		for {
			line, err := br.ReadString('\n')
			if err != nil || line == "\r\n" {
				break
			}
		}
		io.WriteString(c, head)
	}()
	return ln.Addr().String()
}

// TestConnOversizeLengths: a peer's Content-Length or chunk size is a claim,
// not an allocation. A length that overflows, or one the peer never sends,
// ends in an error, never a makeslice panic, and the body buffer grows only
// with the bytes that actually arrived.
func TestConnOversizeLengths(t *testing.T) {
	for _, tc := range []struct{ name, head string }{
		{"content-length max int", "HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775807\r\n\r\npartial"},
		{"content-length unsent", "HTTP/1.1 200 OK\r\nContent-Length: 2147483647\r\n\r\npartial"},
		{"chunk size max int", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n7fffffffffffffff\r\npartial"},
		{"chunk size overflows the body", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n7fffffffffffffff\r\npartial"},
		{"chunk size unsent", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n7fffffff\r\npartial"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := Dial(lyingPeer(t, tc.head))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			code, body, err := conn.Do(BuildGetFrame("/v1/stats"))
			if err == nil {
				t.Fatalf("lying peer answered %d with %d bytes, want an error", code, len(body))
			}
			if cap(conn.body) > 1<<16 {
				t.Fatalf("body buffer grew to %d bytes for a %d-byte response", cap(conn.body), len(tc.head))
			}
		})
	}
}
