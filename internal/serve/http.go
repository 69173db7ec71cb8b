package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime/debug"
	"time"

	"repro/internal/wire"
)

// HTTPOptions tunes the HTTP front-end.
type HTTPOptions struct {
	// RequestTimeout bounds each request's handling (default 120s).
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown once the serve context is
	// canceled (default 10s).
	DrainTimeout time.Duration
	// ReadHeaderTimeout guards against slowloris clients (default 5s).
	ReadHeaderTimeout time.Duration
	// ExtraRoutes mounts additional handlers behind the same middleware
	// chain (recovery + per-request timeout). The cluster tier uses it to
	// mount the /v1/gossip membership endpoint on every shard.
	ExtraRoutes map[string]http.HandlerFunc
}

func (o HTTPOptions) withDefaults() HTTPOptions {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 120 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	if o.ReadHeaderTimeout <= 0 {
		o.ReadHeaderTimeout = 5 * time.Second
	}
	return o
}

// NewHandler wires the service's HTTP/JSON API:
//
//	POST /v1/allocate — AllocateRequest  → AllocateResponse
//	POST /v1/feedback — FeedbackRequest  → FeedbackResponse
//	GET  /v1/stats    — Stats
//	GET  /healthz     — liveness
func NewHandler(s *Server, opts HTTPOptions) http.Handler {
	return newHandler(s, opts, opts.ExtraRoutes)
}

// newHandler is NewHandler plus injected extra routes, so tests can mount a
// deliberately panicking handler behind the real middleware chain.
func newHandler(s *Server, opts HTTPOptions, extra map[string]http.HandlerFunc) http.Handler {
	opts = opts.withDefaults()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/allocate", func(w http.ResponseWriter, r *http.Request) {
		// The allocate hot path reads, decodes and answers from a pooled
		// workspace: the body buffer, the request's slice buffers, the
		// response and every scratch the pipeline touches are recycled
		// across requests.
		ws := s.readPost(w, r)
		if ws == nil {
			return
		}
		defer s.putWS(ws)
		if code, err := s.answerAllocate(r.Context(), ws); err != nil {
			writeError(w, code, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(ws.buf) // a failed write is a client that went away
	})
	mux.HandleFunc("/v1/feedback", func(w http.ResponseWriter, r *http.Request) {
		ws := s.readPost(w, r)
		if ws == nil {
			return
		}
		var req FeedbackRequest
		err := wire.DecodeFeedback(ws.buf, &req)
		s.putWS(ws) // req shares nothing with the buffer; a refit can take a while
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
			return
		}
		resp, err := s.Feedback(r.Context(), req)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
			return
		}
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		status := "ok"
		code := http.StatusOK
		if s.draining.Load() {
			status, code = "draining", http.StatusServiceUnavailable
		}
		writeJSON(w, code, map[string]string{"status": status})
	})
	for pattern, h := range extra {
		mux.HandleFunc(pattern, h)
	}
	return withRecovery(withTimeout(mux, opts.RequestTimeout), s)
}

// withRecovery absorbs handler panics: one broken request must not take down
// the listener goroutine or silently drop the connection. The panic is logged
// with its stack, counted in Stats.RecoveredPanics, and answered with a 500
// when the response hasn't started.
func withRecovery(next http.Handler, s *Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.panics.Add(1)
				s.cfg.Logf("serve: panic in %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				// Best effort: if the handler already wrote a header this
				// is a no-op superfluous-WriteHeader log, not a crash.
				writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withTimeout attaches a per-request deadline to the request context.
func withTimeout(next http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// readPost reads a POSTed body, capped at wire.MaxBody, into a pooled
// workspace's buffer. It answers the request itself and returns nil when the
// method is wrong or the body cannot be read.
func (s *Server) readPost(w http.ResponseWriter, r *http.Request) *allocWS {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return nil
	}
	ws := s.getWS()
	var err error
	if ws.buf, err = wire.ReadBody(ws.buf[:0], http.MaxBytesReader(w, r.Body, wire.MaxBody)); err != nil {
		s.putWS(ws)
		writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return nil
	}
	return ws
}

// answerAllocate is the allocate hot path between the socket read and the
// socket write: it decodes the body in ws.buf, allocates, and leaves the
// encoded answer in ws.buf. On error it returns the status to answer with.
func (s *Server) answerAllocate(ctx context.Context, ws *allocWS) (int, error) {
	if err := wire.DecodeAllocate(ws.buf, &ws.req); err != nil {
		return http.StatusBadRequest, fmt.Errorf("decode: %w", err)
	}
	if err := s.AllocateInto(ctx, ws.req, ws); err != nil {
		return statusFor(err), err
	}
	var err error
	if ws.buf, err = wire.AppendAllocateResponse(ws.buf[:0], &ws.resp); err != nil {
		return http.StatusInternalServerError, err
	}
	return http.StatusOK, nil
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// ServeListener runs the HTTP front-end on an existing listener until ctx is
// canceled, then drains gracefully: the server flips into draining mode
// (allocates still answer, labelled degraded, feedback fails fast,
// /healthz reports draining so load balancers stop routing), and in-flight
// requests get DrainTimeout to finish.
func ServeListener(ctx context.Context, ln net.Listener, s *Server, opts HTTPOptions) error {
	opts = opts.withDefaults()
	return serveHandler(ctx, ln, NewHandler(s, opts), s, opts)
}

// serveHandler is ServeListener with the handler injected, so tests can run
// the real serve/drain loop around a handler with extra routes.
func serveHandler(ctx context.Context, ln net.Listener, h http.Handler, s *Server, opts HTTPOptions) error {
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: opts.ReadHeaderTimeout,
		BaseContext:       func(net.Listener) context.Context { return context.Background() },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.Drain()
	drainCtx, cancel := context.WithTimeout(context.Background(), opts.DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	return nil
}

// ListenAndServe binds addr and calls ServeListener. The bound address is
// reported through the optional ready callback (useful with ":0").
func ListenAndServe(ctx context.Context, addr string, s *Server, opts HTTPOptions, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	if ready != nil {
		ready(ln.Addr())
	}
	return ServeListener(ctx, ln, s, opts)
}
