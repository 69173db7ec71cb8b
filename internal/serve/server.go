package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/mlearn"
	"repro/internal/wire"
)

// latencyWindow bounds the ring of recent allocate latencies kept for
// quantile reporting.
const latencyWindow = 4096

// Server is the online allocation service: a concurrent front-end over the
// shared historical store, its per-cluster sub-stores and the online local
// model. One Server handles any number of concurrent Allocate and Feedback
// calls; the HTTP layer in http.go is a thin JSON adapter over it.
type Server struct {
	cfg      Config
	template *core.Problem
	store    *core.EnvironmentStore

	// localMu guards the local-model pointer and its generation; the model
	// itself is immutable after Fit, so requests snapshot the pointer and
	// score lock-free. localGen is the refit generation of local (0: the boot
	// model): only a newer fit replaces it.
	localMu  sync.RWMutex
	local    *alloc.LocalModel
	localGen uint64

	// fbMu serializes the feedback window, refit bookkeeping and the
	// duplicate-seq ledger. fitGen numbers refit snapshots in window order.
	fbMu     sync.Mutex
	window   sampleRing
	sinceFit int
	fitGen   uint64
	// fbSeen/fbSeenQ dedupe client-supplied feedback sequence numbers: the
	// router replays feedback on failover, but refits are not idempotent, so
	// a bounded FIFO set of recent seqs absorbs the replays.
	fbSeen     map[int64]bool
	fbSeenQ    []int64
	fbSeenNext int

	started   time.Time
	draining  atomic.Bool
	allocates atomic.Int64
	feedbacks atomic.Int64
	refits    atomic.Int64
	storeAdds atomic.Int64
	degraded  atomic.Int64
	panics    atomic.Int64 // handler panics recovered by the HTTP middleware
	fbDupes   atomic.Int64 // duplicate feedback requests absorbed by seq dedupe
	// dctaBypass counts normal answers that mixed in the local process.
	dctaBypass atomic.Int64

	// subs memoises clusterStore per cluster, valid while the store is subLen
	// long: the append-only store changes a neighbourhood only by growing.
	subMu  sync.RWMutex
	subLen int
	subs   map[int]*core.EnvironmentStore

	// membership is the gossip plane's stats provider (nil unless
	// SetMembership ran; see membership.go).
	memberMu   sync.Mutex
	membership func() *MembershipStats

	latMu   sync.Mutex
	lat     []int64 // ns ring, most recent latencyWindow allocates
	latNext int
	latFull bool

	// wsPool recycles per-request allocate workspaces (allocWS) so the
	// warm path runs allocation-free.
	wsPool sync.Pool

	// fit fits a fresh local model on a refit snapshot; tests hold it to
	// order overlapping refits.
	fit func(seed int64, samples []alloc.LocalSample) (*alloc.LocalModel, error)
}

// fitLocal is Server.fit: a fresh SVM local model fitted on samples.
func fitLocal(seed int64, samples []alloc.LocalSample) (*alloc.LocalModel, error) {
	m := alloc.NewLocalModel(seed)
	if err := m.Fit(samples); err != nil {
		return nil, err
	}
	return m, nil
}

// NewServer builds a service over a problem template (structure only — the
// importance the service estimates lives in the store) and a non-empty
// historical environment store. local may be nil: feature-carrying requests
// then take the crl arm until feedback accumulates a window.
func NewServer(template *core.Problem, store *core.EnvironmentStore, local *alloc.LocalModel, cfg Config) (*Server, error) {
	if template == nil {
		return nil, fmt.Errorf("serve: nil template")
	}
	if err := template.Validate(); err != nil {
		return nil, fmt.Errorf("serve: template: %w", err)
	}
	if store == nil || store.Len() == 0 {
		return nil, core.ErrEmptyStore
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		template: template.Clone(),
		store:    store,
		local:    local,
		started:  cfg.Now(),
		lat:      make([]int64, latencyWindow),
		subLen:   store.Len(),
		subs:     make(map[int]*core.EnvironmentStore),
		fit:      fitLocal,
	}
	s.window.max = cfg.MaxFeedback
	s.wsPool.New = func() any { return &allocWS{} }
	return s, nil
}

// Store returns the historical environment store the service clusters over.
func (s *Server) Store() *core.EnvironmentStore { return s.store }

// Template returns (a clone of) the problem structure being served.
func (s *Server) Template() *core.Problem { return s.template.Clone() }

// Drain flips the server into draining mode: allocates still answer, with
// the same decision, labelled degraded, and feedback fails fast with
// ErrDraining while in-flight requests finish. The HTTP layer calls this
// before shutting the listener down.
func (s *Server) Drain() { s.draining.Store(true) }

// clusterStore returns a cluster's sub-store: the ClusterNeighborhood stored
// environments nearest the cluster representative's signature — Alg. 1's
// per-cluster history, which every normal answer defines its environment
// from. A sub-store is immutable once built and shared by every reader; store
// growth builds a new one.
func (s *Server) clusterStore(cluster int) (*core.EnvironmentStore, error) {
	n := s.store.Len()
	s.subMu.RLock()
	sub := s.subs[cluster]
	fresh := s.subLen == n
	s.subMu.RUnlock()
	if fresh && sub != nil {
		return sub, nil
	}
	rep, err := s.store.At(cluster)
	if err != nil {
		return nil, err
	}
	neighbors, err := s.store.Nearest(rep.Signature, s.cfg.ClusterNeighborhood)
	if err != nil {
		return nil, err
	}
	sub = core.NewEnvironmentStore()
	for _, env := range neighbors {
		if err := sub.Add(env); err != nil {
			return nil, err
		}
	}
	// Stamped with the length read before the build: if the store grew since,
	// the next lookup sees a longer store and builds again.
	s.subMu.Lock()
	if n > s.subLen {
		s.subLen, s.subs = n, make(map[int]*core.EnvironmentStore)
	}
	if n == s.subLen {
		s.subs[cluster] = sub
	}
	s.subMu.Unlock()
	return sub, nil
}

// The request and response bodies are defined, with their codec, in
// internal/wire, which the router shares.
type (
	AllocateRequest  = wire.AllocateRequest
	AllocateResponse = wire.AllocateResponse
	FeedbackRequest  = wire.FeedbackRequest
)

// finiteVec rejects NaN/±Inf vector entries at the request trust boundary.
func finiteVec(name string, v []float64) error {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w: %s[%d] = %v: %w", ErrBadRequest, name, i, x, ErrNonFinite)
		}
	}
	return nil
}

// checkFeatures rejects a features matrix at the request trust boundary
// whose rows differ in length or hold NaN/±Inf.
func checkFeatures(m [][]float64) error {
	for i, row := range m {
		if len(row) != len(m[0]) {
			return fmt.Errorf("%w: features[%d] has %d entries, features[0] %d",
				ErrBadRequest, i, len(row), len(m[0]))
		}
		for k, x := range row {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("%w: features[%d][%d] = %v: %w", ErrBadRequest, i, k, x, ErrNonFinite)
			}
		}
	}
	return nil
}

// Serving modes (AllocateResponse.Mode).
const (
	// ModeNormal answered by the allocator the request selected, over the
	// cluster's sub-store: DCTA, or the crl arm's pack on the defined
	// importance.
	ModeNormal = "normal"
	// ModeDegraded labels an answer given while the server drains: the
	// decision is the normal one (see DegradedReason).
	ModeDegraded = "degraded"
	// DegradedDraining is the degraded reason: the server is draining, and
	// in-flight traffic still gets its answer.
	DegradedDraining = "draining"
)

// CacheBypass is every answer's AllocateResponse.Cache: no policy is cached
// or consulted, each answer is computed directly from the store.
const CacheBypass = "bypass"

// allocWS is the per-request workspace for the allocate path: the body
// buffer, the decode target, the response, and the decision's workspace,
// pooled so a steady-state request (its cluster's sub-store built) performs
// zero allocations end to end.
type allocWS struct {
	buf  []byte           // request body in, encoded response out
	req  AllocateRequest  // HTTP decode target (slice capacity reused)
	resp AllocateResponse // Allocation backing array reused
	dec  alloc.Decision   // the environment, scores and plan of the answer
}

func (s *Server) getWS() *allocWS { return s.wsPool.Get().(*allocWS) }

// putWS recycles ws unless it served an oversized body, whose buffer and
// decoded arrays would otherwise stay resident.
func (s *Server) putWS(ws *allocWS) {
	if cap(ws.buf) <= wire.MaxPooledBody {
		s.wsPool.Put(ws)
	}
}

// Allocate answers one allocation query. Safe for arbitrary concurrency:
// store reads are lock-protected, every request defines and packs through
// its own workspace, and the local model is immutable-after-Fit.
//
// Availability contract: once the request is validated, Allocate answers —
// while draining too, with the same decision labelled degraded. Only
// malformed requests error.
func (s *Server) Allocate(ctx context.Context, req AllocateRequest) (*AllocateResponse, error) {
	ws := s.getWS()
	defer s.putWS(ws)
	if err := s.AllocateInto(ctx, req, ws); err != nil {
		return nil, err
	}
	resp := ws.resp
	resp.Allocation = append([]int(nil), ws.resp.Allocation...)
	return &resp, nil
}

// AllocateInto is Allocate writing into ws.resp — the zero-steady-state-
// allocation entry point the HTTP layer and benchmarks use. ws must come
// from getWS (or be zero-initialized) and must not be reused until the
// response has been consumed.
func (s *Server) AllocateInto(_ context.Context, req AllocateRequest, ws *allocWS) error {
	start := s.cfg.Now()
	ws.resp = AllocateResponse{Allocation: ws.resp.Allocation[:0]}
	if len(req.Signature) == 0 {
		return fmt.Errorf("%w: empty signature", ErrBadRequest)
	}
	if err := finiteVec("signature", req.Signature); err != nil {
		return err
	}
	if err := checkFeatures(req.Features); err != nil {
		return err
	}
	switch req.Allocator {
	case "", "auto", "crl", "dcta":
	default:
		return fmt.Errorf("%w: unknown allocator %q", ErrBadRequest, req.Allocator)
	}
	cluster, _, err := s.store.NearestIndex(req.Signature)
	if err != nil {
		// Dimension mismatch with the store's signatures (or an empty
		// store, impossible after NewServer) is a client error.
		return fmt.Errorf("%w: cluster lookup: %v", ErrBadRequest, err)
	}
	local := s.localModel()
	fitted := local != nil && local.Fitted()
	useDCTA := false
	switch req.Allocator {
	case "dcta":
		if len(req.Features) != len(s.template.Tasks) {
			return fmt.Errorf("%w: dcta needs %d feature vectors, got %d",
				ErrBadRequest, len(s.template.Tasks), len(req.Features))
		}
		if !fitted {
			return fmt.Errorf("%w: local model not fitted", ErrBadRequest)
		}
		useDCTA = true
	case "", "auto":
		useDCTA = fitted && len(req.Features) == len(s.template.Tasks)
	}
	sub, err := s.clusterStore(cluster)
	if err != nil {
		return fmt.Errorf("serve: cluster store: %w", err)
	}
	// The crl arm packs the defined importance alone, to full coverage; DCTA
	// mixes in the local process and packs to the coverage target.
	allocator, target, feats := "CRL", 1.0, [][]float64(nil)
	if useDCTA {
		allocator, target, feats = "DCTA", s.cfg.CoverageTarget, req.Features
	} else {
		local = nil
	}
	err = alloc.Decide(s.template, sub, s.cfg.CRL, req.Signature, local, feats, s.cfg.W1, s.cfg.W2, target, &ws.dec)
	if errors.Is(err, mlearn.ErrBadShape) {
		// The rows are not as wide as the rows the model was fitted on.
		return fmt.Errorf("%w: features: %v", ErrBadRequest, err)
	}
	if err != nil {
		return fmt.Errorf("serve: cluster %d: %w", cluster, err)
	}
	latency := s.cfg.Now().Sub(start)
	s.allocates.Add(1)
	s.recordLatency(latency)
	resp := &ws.resp
	resp.Allocation = append(resp.Allocation[:0], ws.dec.Plan...)
	resp.Cluster = cluster
	resp.Cache = CacheBypass
	resp.Allocator = allocator
	resp.Mode = ModeNormal
	resp.PredictedImportance = ws.dec.Predicted
	resp.LatencyNanos = int64(latency)
	switch {
	case s.draining.Load():
		s.degraded.Add(1)
		resp.Mode, resp.DegradedReason = ModeDegraded, DegradedDraining
	case useDCTA:
		s.dctaBypass.Add(1)
	}
	return nil
}

func (s *Server) localModel() *alloc.LocalModel {
	s.localMu.RLock()
	defer s.localMu.RUnlock()
	return s.local
}

// maxFeedbackSeqs bounds the duplicate-detection ledger; the window only
// needs to outlive the router's retry horizon (one failed round trip), not
// the deployment.
const maxFeedbackSeqs = 4096

// FeedbackResponse reports what the feedback changed.
type FeedbackResponse struct {
	Samples    int `json:"samples"`
	WindowSize int `json:"window_size"`
	// Refitted is true when this request refit the local model and the fit
	// was published; a fit that a newer window's fit overtook is dropped.
	Refitted          bool `json:"refitted"`
	StoredEnvironment bool `json:"stored_environment"`
	// Duplicate is true when the request's Seq was already applied here; the
	// request changed nothing.
	Duplicate bool `json:"duplicate,omitempty"`
}

// Feedback ingests one observed decision.
func (s *Server) Feedback(ctx context.Context, req FeedbackRequest) (*FeedbackResponse, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	if len(req.Features) == 0 || len(req.Allocation) == 0 {
		return nil, fmt.Errorf("%w: feedback needs features and an allocation", ErrBadRequest)
	}
	if len(req.Features) != len(req.Allocation) {
		return nil, fmt.Errorf("%w: %d feature vectors for %d allocation entries",
			ErrBadRequest, len(req.Features), len(req.Allocation))
	}
	if err := finiteVec("signature", req.Signature); err != nil {
		return nil, err
	}
	if err := checkFeatures(req.Features); err != nil {
		return nil, err
	}
	if err := finiteVec("importance", req.Importance); err != nil {
		return nil, err
	}
	// Every sample must be as wide as the served model's rows, or, before
	// any fit, as the window's, or the next refit fails on the mixed window.
	width := len(req.Features[0])
	if local := s.localModel(); local != nil && local.Fitted() {
		if _, _, err := local.ScoreInto(req.Features[0], nil); errors.Is(err, mlearn.ErrBadShape) {
			return nil, fmt.Errorf("%w: features: %v", ErrBadRequest, err)
		}
	}
	// An environment to store must fit the store, checked here: once the seq
	// is recorded and the samples are in the window, nothing may fail.
	if req.AddToStore {
		first, err := s.store.At(0) // the store is non-empty and append-only
		if err != nil {
			return nil, fmt.Errorf("serve: feedback store: %w", err)
		}
		if len(req.Signature) != len(first.Signature) {
			return nil, fmt.Errorf("%w: add_to_store signature has %d entries, the store's %d",
				ErrBadRequest, len(req.Signature), len(first.Signature))
		}
		if len(req.Importance) != len(s.template.Tasks) {
			return nil, fmt.Errorf("%w: add_to_store importance has %d entries for %d tasks",
				ErrBadRequest, len(req.Importance), len(s.template.Tasks))
		}
	}
	samples := alloc.SamplesFromDecision(req.Features, core.Allocation(req.Allocation))
	resp := &FeedbackResponse{Samples: len(samples)}

	s.fbMu.Lock()
	if w := s.window.width(); w > 0 && w != width {
		s.fbMu.Unlock()
		return nil, fmt.Errorf("%w: features have %d entries, the feedback window %d",
			ErrBadRequest, width, w)
	}
	if req.Seq != 0 {
		if s.fbSeen[req.Seq] {
			window := s.window.len()
			s.fbMu.Unlock()
			s.fbDupes.Add(1)
			return &FeedbackResponse{WindowSize: window, Duplicate: true}, nil
		}
		if s.fbSeen == nil {
			s.fbSeen = make(map[int64]bool, maxFeedbackSeqs)
		}
		s.fbSeen[req.Seq] = true
		if len(s.fbSeenQ) < maxFeedbackSeqs {
			s.fbSeenQ = append(s.fbSeenQ, req.Seq)
		} else {
			// Ring replacement: forget the oldest seq in O(1).
			delete(s.fbSeen, s.fbSeenQ[s.fbSeenNext])
			s.fbSeenQ[s.fbSeenNext] = req.Seq
			s.fbSeenNext = (s.fbSeenNext + 1) % maxFeedbackSeqs
		}
	}
	s.window.push(samples)
	s.sinceFit += len(samples)
	refit := s.sinceFit >= s.cfg.RefitEvery
	var snapshot []alloc.LocalSample
	var gen uint64
	if refit {
		s.sinceFit = 0
		s.fitGen++
		gen = s.fitGen
		snapshot = s.window.snapshot()
	}
	resp.WindowSize = s.window.len()
	s.fbMu.Unlock()

	if refit {
		// Fit a *fresh* model outside all locks, then publish it: in-flight
		// requests keep scoring on the model they started with. Overlapping
		// fits may finish in any order, so only a fit of a newer snapshot
		// than the served model's replaces it.
		fresh, err := s.fit(s.cfg.Seed+s.refits.Load()+808, snapshot)
		if err != nil {
			return nil, fmt.Errorf("serve: refit local model: %w", err)
		}
		s.localMu.Lock()
		if gen > s.localGen {
			s.local, s.localGen = fresh, gen
			resp.Refitted = true
		}
		s.localMu.Unlock()
		if resp.Refitted {
			s.refits.Add(1)
		}
	}

	if req.AddToStore {
		caps := make([]float64, len(s.template.Processors))
		for i, pr := range s.template.Processors {
			caps[i] = pr.Capacity
		}
		imp := make([]float64, len(req.Importance))
		for i, v := range req.Importance {
			imp[i] = mathx.Clamp(v, 0, 1)
		}
		env := &core.Environment{
			Importance: imp,
			Capacity:   caps,
			Signature:  mathx.Clone(req.Signature),
		}
		if err := s.store.Add(env); err != nil {
			return nil, fmt.Errorf("serve: feedback store add: %w", err)
		}
		s.storeAdds.Add(1)
		resp.StoredEnvironment = true
	}
	s.feedbacks.Add(1)
	return resp, nil
}

// sampleRing is the feedback window: the most recent max samples. It grows
// until full, then overwrites the oldest sample in place, so a steady stream
// of feedback copies no window.
type sampleRing struct {
	buf  []alloc.LocalSample
	next int // the oldest sample, next to be overwritten, once buf is full
	max  int
}

func (r *sampleRing) len() int { return len(r.buf) }

// width is the length of every sample's features, 0 while the ring is empty.
func (r *sampleRing) width() int {
	if len(r.buf) == 0 {
		return 0
	}
	return len(r.buf[0].Features)
}

func (r *sampleRing) push(samples []alloc.LocalSample) {
	for _, smp := range samples {
		if len(r.buf) < r.max {
			r.buf = append(r.buf, smp)
			continue
		}
		r.buf[r.next] = smp
		r.next = (r.next + 1) % r.max
	}
}

// snapshot copies the window oldest first: the order every refit fits in.
func (r *sampleRing) snapshot() []alloc.LocalSample {
	out := make([]alloc.LocalSample, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

func (s *Server) recordLatency(d time.Duration) {
	s.latMu.Lock()
	s.lat[s.latNext] = int64(d)
	s.latNext++
	if s.latNext == len(s.lat) {
		s.latNext = 0
		s.latFull = true
	}
	s.latMu.Unlock()
}

// LatencyStats summarizes the recent allocate-latency window.
type LatencyStats struct {
	Count int64 `json:"count"`
	P50   int64 `json:"p50_ns"`
	P95   int64 `json:"p95_ns"`
	P99   int64 `json:"p99_ns"`
	Max   int64 `json:"max_ns"`
}

// Stats is the /v1/stats payload.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_s"`
	Allocates     int64   `json:"allocates"`
	// DegradedCount is the number of allocations answered while draining
	// (subset of Allocates).
	DegradedCount int64 `json:"degraded"`
	// DCTABypass counts normal answers that mixed in the local process
	// (DCTA); the other normal answers are the crl arm's.
	DCTABypass int64 `json:"dcta_bypass"`
	Feedbacks  int64 `json:"feedbacks"`
	Refits     int64 `json:"refits"`
	StoreSize  int   `json:"store_size"`
	StoreAdds  int64 `json:"store_adds"`
	WindowSize int   `json:"feedback_window"`
	// RecoveredPanics counts HTTP handler panics absorbed by the recovery
	// middleware.
	RecoveredPanics int64 `json:"recovered_panics"`
	// FeedbackDuplicates counts feedback requests absorbed by seq dedupe.
	FeedbackDuplicates int64        `json:"feedback_duplicates"`
	Latency            LatencyStats `json:"latency"`
	// Membership is the gossip membership plane's view and protocol
	// counters when the node gossips (absent standalone).
	Membership *MembershipStats `json:"membership,omitempty"`
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	s.fbMu.Lock()
	window := s.window.len()
	s.fbMu.Unlock()
	return Stats{
		UptimeSeconds:      s.cfg.Now().Sub(s.started).Seconds(),
		Allocates:          s.allocates.Load(),
		DegradedCount:      s.degraded.Load(),
		DCTABypass:         s.dctaBypass.Load(),
		Feedbacks:          s.feedbacks.Load(),
		Refits:             s.refits.Load(),
		StoreSize:          s.store.Len(),
		StoreAdds:          s.storeAdds.Load(),
		WindowSize:         window,
		RecoveredPanics:    s.panics.Load(),
		FeedbackDuplicates: s.fbDupes.Load(),
		Latency:            s.latencyStats(),
		Membership:         s.membershipStats(),
	}
}

func (s *Server) latencyStats() LatencyStats {
	s.latMu.Lock()
	n := s.latNext
	if s.latFull {
		n = len(s.lat)
	}
	window := append([]int64(nil), s.lat[:n]...)
	s.latMu.Unlock()
	if len(window) == 0 {
		return LatencyStats{}
	}
	sort.Slice(window, func(a, b int) bool { return window[a] < window[b] })
	q := func(p float64) int64 {
		i := int(p * float64(len(window)-1))
		return window[i]
	}
	return LatencyStats{
		Count: int64(len(window)),
		P50:   q(0.50),
		P95:   q(0.95),
		P99:   q(0.99),
		Max:   window[len(window)-1],
	}
}
