package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// The traced run. It is separate from the timed window, which records
// nothing: one client issues a fixed number of requests of the workload's
// stream, and each request is issued once per layer boundary, outermost
// first — the host's socket (the same cross-process hop the timed run pays),
// then, on a second copy of the stack booted inside this process, the
// router's handler, the owning shard's socket, the shard's handler,
// Server.Allocate, and the pieces of the warm path. Every call is one span; a
// layer's self time is its span minus its child spans. Spans sit in a
// preallocated buffer and are written out when the run ends.

// Span names. A span's parent is the next boundary outwards.
const (
	spanPT       = "pt"
	spanClient   = "client"
	spanRouter   = "cluster.router_handler"
	spanShard    = "shard_socket"
	spanHTTP     = "serve.http"
	spanAllocate = "serve.allocate"
	spanKNN      = "core.knn"
	spanDefine   = "core.define_env"
	spanRollout  = "core.rollout"
	spanCombine  = "alloc.combine"
	spanPack     = "alloc.pack"
	spanTrain    = "core.train"
	spanExec     = "edgenet.exec"
	spanFeedback = "feedback"
)

type span struct {
	Req    int
	Name   string
	Parent string
	Start  int64 // ns since the trace began
	End    int64
}

type tracer struct {
	began time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{began: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) add(req int, name, parent string, start time.Time, d time.Duration) {
	s := start.Sub(t.began).Nanoseconds()
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: parent, Start: s, End: s + d.Nanoseconds()})
}

// timed runs f as one span.
func (t *tracer) timed(req int, name, parent string, f func() error) error {
	start := time.Now()
	err := f()
	t.add(req, name, parent, start, time.Since(start))
	return err
}

// durations returns every span's length by name, in ns.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
	}
	return out
}

// selfTimes returns, by name, each span's length minus the lengths of its
// direct children in the same request.
func (t *tracer) selfTimes() map[string][]float64 {
	type key struct {
		req  int
		name string
	}
	children := map[key]float64{}
	for _, s := range t.spans {
		if s.Parent != "" {
			children[key{s.Req, s.Parent}] += float64(s.End - s.Start)
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)-children[key{s.Req, s.Name}])
	}
	return out
}

// requestSelfSums returns, per request, the sum of the self times of its
// allocate chain (feedback runs beside the allocate, not inside it).
func (t *tracer) requestSelfSums() []float64 {
	sums := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == spanFeedback {
			continue
		}
		d := float64(s.End - s.Start)
		sums[s.Req] += d
		if s.Parent != "" {
			sums[s.Req] -= d
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(bw, `{"req":%d,"name":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.Req, s.Name, s.Parent, s.Start, s.End)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// memWriter is an http.ResponseWriter that keeps the response in memory, so
// a handler can be timed without a socket.
type memWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (m *memWriter) Header() http.Header         { return m.header }
func (m *memWriter) Write(p []byte) (int, error) { return m.body.Write(p) }
func (m *memWriter) WriteHeader(code int)        { m.status = code }

func (m *memWriter) reset() {
	m.header = http.Header{}
	m.status = http.StatusOK
	m.body.Reset()
}

// callHandler posts body to a handler in memory and fails on a non-200.
func callHandler(h http.Handler, m *memWriter, path string, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	m.reset()
	h.ServeHTTP(m, req)
	if m.status != http.StatusOK {
		return fmt.Errorf("%s in memory: status %d: %.200s", path, m.status, m.body.Bytes())
	}
	return nil
}

// traceStream is the generator stream the traced run draws from.
const traceStream = 3000

// traceRun runs the untraced and the traced pass against the session's host
// and an in-process copy of the stack, then the off-path probes, and adds
// the per-layer metrics to res, the result of the timed window.
func traceRun(s *session, res *runResult, clients int, outDir string) error {
	w, spec := s.w, s.spec
	// cold_churn's requests train, so a second issue of one would hit: its
	// inner spans come from what each answer reports, and no copy is booted.
	var st *stack
	if !spec.StoreBases {
		var err error
		if st, err = bootStack(w, spec); err != nil {
			return err
		}
		defer st.close()
		inner := newSession(w, spec, s.seed)
		inner.t = st.info(w)
		swept, err := inner.sweep()
		if err != nil {
			return err
		}
		if swept.failed > 0 {
			return fmt.Errorf("traced run: sweep failed: %s", strings.Join(swept.failures, "; "))
		}
	}
	pol, err := w.trainPolicy(w.Eval[0].Cluster, nil)
	if err != nil {
		return fmt.Errorf("train probe policy: %w", err)
	}

	// The fixed request list: the first N draws of the trace stream.
	type request struct {
		base *base
		sig  []float64
	}
	gen := newGenerator(s.seed, traceStream, s.bases, spec, w.SigStd, w.nearest)
	reqs := make([]request, spec.TraceRequests)
	for i := range reqs {
		idx, sig := gen.next()
		reqs[i] = request{base: &s.bases[idx], sig: append([]float64(nil), sig...)}
	}

	// The outermost boundary: the same cross-process sockets and the same
	// number of closed-loop clients as the timed window, so that what waits
	// there (the training gate, a busy core) waits here too. Client k issues
	// requests k, k+clients, ... The untraced pass records nothing; the
	// traced pass keeps each request's two clock reads and what its answer
	// reports, and the spans are built from them afterwards.
	type outerSpan struct {
		start   time.Time
		lat     time.Duration // allocate round trip
		ready   time.Duration // DecisionReadyAt (edge_pt)
		cold    bool
		dcta    bool
		srvNs   int64 // the answer's latency_ns
		trainNs int64
		fbStart time.Time
		fbLat   time.Duration
	}
	outerPass := func(keep []outerSpan) ([]float64, error) {
		lats := make([]float64, len(reqs))
		errs := make([]error, clients)
		recs := make([]*recording, clients)
		var wg sync.WaitGroup
		for k := 0; k < clients; k++ {
			c, err := s.newClient(traceStream+k, time.Now())
			if err != nil {
				return nil, err
			}
			recs[k] = c.rec
			wg.Add(1)
			go func(k int, c *client) {
				defer wg.Done()
				defer c.cn.close()
				for i := k; i < len(reqs); i += clients {
					r := reqs[i]
					o := outerSpan{start: time.Now()}
					var ok bool
					if o.lat, ok = c.allocate(r.base, r.sig); !ok {
						errs[k] = fmt.Errorf("traced run: %s", strings.Join(c.rec.failures, "; "))
						return
					}
					o.cold, o.dcta = c.ans.cold(), c.ans.Allocator == "DCTA"
					o.srvNs, o.trainNs = c.ans.LatencyNanos, c.ans.TrainNanos
					if spec.EdgeWorkers {
						rep, err := w.executePlan(s.t.Workers, s.t.Controller, r.base.Truth, c.ans.Allocation, nil)
						if err != nil {
							errs[k] = err
							return
						}
						o.ready = rep.Ready
					}
					lats[i] = float64((o.lat + o.ready).Nanoseconds())
					if spec.FeedbackEvery > 0 && (i+1)%spec.FeedbackEvery == 0 {
						sent := len(c.rec.fbLat)
						o.fbStart = time.Now()
						c.feedback(r.base, r.sig)
						if len(c.rec.fbLat) == sent {
							errs[k] = fmt.Errorf("traced run: %s", strings.Join(c.rec.failures, "; "))
							return
						}
						o.fbLat = time.Duration(c.rec.fbLat[sent])
					}
					if keep != nil {
						keep[i] = o
					}
				}
			}(k, c)
		}
		wg.Wait()
		for k, rec := range recs {
			res.Attempted += rec.attempted
			res.Failed += rec.failed
			res.Failures = append(res.Failures, rec.failures...)
			if errs[k] != nil {
				return nil, errs[k]
			}
		}
		return lats, nil
	}
	untraced, err := outerPass(nil)
	if err != nil {
		return err
	}
	outers := make([]outerSpan, len(reqs))
	if _, err := outerPass(outers); err != nil {
		return err
	}
	tr := newTracer(len(reqs) * 12)
	for i, o := range outers {
		parent := ""
		if spec.EdgeWorkers {
			tr.add(i, spanPT, "", o.start, o.lat+o.ready)
			tr.add(i, spanExec, spanPT, o.start.Add(o.lat), o.ready)
			parent = spanPT
		}
		tr.add(i, spanClient, parent, o.start, o.lat)
		if st == nil || o.cold {
			// A request that trained is not issued again (it would hit): its
			// inner spans are what its answer reports.
			tr.add(i, spanAllocate, spanClient, o.start, time.Duration(o.srvNs))
			if o.cold {
				tr.add(i, spanTrain, spanAllocate, o.start, time.Duration(o.trainNs))
			}
		}
		if o.fbLat > 0 {
			tr.add(i, spanFeedback, "", o.fbStart, o.fbLat)
		}
	}

	// The boundaries inside the host, one pass each over the whole request
	// list: interleaving them per request would leave every layer idle
	// between its calls, and the wake-up inflates each span differently
	// from run to run.
	if st != nil {
		if err := tracedInner(tr, st, pol, spec, len(reqs), func(i int) (*base, []float64, bool) {
			return reqs[i].base, reqs[i].sig, !outers[i].cold
		}, func(i int) bool { return outers[i].dcta }); err != nil {
			return err
		}
	}
	if err := tr.write(filepath.Join(outDir, "trace-"+spec.Name+".jsonl")); err != nil {
		return err
	}

	dur := tr.durations()
	put := func(name, spanName string, scale float64) {
		res.put(name, median(dur[spanName])/scale, len(dur[spanName]))
	}
	put("cluster.router_handler_us", spanRouter, 1e3)
	put("serve.http_us", spanHTTP, 1e3)
	put("serve.allocate_us", spanAllocate, 1e3)
	put("core.knn_ns", spanKNN, 1)
	put("core.define_env_us", spanDefine, 1e3)
	put("core.rollout_us", spanRollout, 1e3)
	put("alloc.combine_us", spanCombine, 1e3)
	put("alloc.pack_us", spanPack, 1e3)
	if h := dur[spanHTTP]; len(h) > 0 {
		// The handler's self time: its span minus the Server.Allocate inside.
		res.put("serve.codec_us", median(tr.selfTimes()[spanHTTP])/1e3, len(h))
		if direct, ok := res.Metrics["client.direct_rtt_us"]; ok {
			res.put("serve.transport_us", direct-median(h)/1e3, res.Samples["client.direct_rtt_us"])
		}
	}
	outermost := spanClient
	if spec.EdgeWorkers {
		outermost = spanPT
	}
	if base := median(untraced); base > 0 {
		res.put("client.trace_overhead_pct", (median(dur[outermost])-base)/base*100, len(untraced))
	}
	// The self times of one request's chain against the timed window's
	// median of what this workload's users wait for.
	headline := res.Metrics["alloc_p50_us"] * 1e3
	if spec.EdgeWorkers {
		headline = res.Metrics["pt_p50_ms"] * 1e6
	}
	if headline > 0 {
		res.put("client.trace_self_sum_ratio", median(tr.requestSelfSums())/headline, len(untraced))
	}

	probes, counts, stop, err := w.layerProbes(pol)
	if err != nil {
		return err
	}
	defer stop()
	for name, v := range counts {
		res.put(name, v, 1)
	}
	for _, p := range probes {
		ns, n, err := timeProbe(p, s.quick)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.Name, err)
		}
		res.put(p.Name, ns/unitNs(unitOf(p.Name)), n)
	}
	return nil
}

// tracedInner issues the re-issuable requests at each boundary inside the
// host, on the in-process copy of the stack: the router's handler, the owning
// shard's socket, the shard's handler, Server.Allocate, and the warm path's
// pieces on the benchmark's own policy.
func tracedInner(tr *tracer, st *stack, pol *policy, spec workloadSpec, n int,
	request func(i int) (b *base, sig []float64, reissue bool), dcta func(i int) bool) error {
	var mem memWriter
	var body []byte
	// pass runs one boundary over every re-issuable request.
	pass := func(name, parent string, call func(b *base, sig []float64, owner int, body []byte) error) error {
		for i := 0; i < n; i++ {
			b, sig, ok := request(i)
			if !ok {
				continue
			}
			body = appendAllocateBody(body[:0], sig, b, spec.Allocator, spec.Features)
			owner := st.owner(b.Cluster)
			if err := tr.timed(i, name, parent, func() error { return call(b, sig, owner, body) }); err != nil {
				return fmt.Errorf("traced run: %s: %w", name, err)
			}
		}
		return nil
	}
	parent := spanClient
	if router := st.routerHandler(); router != nil {
		if err := pass(spanRouter, parent, func(_ *base, _ []float64, _ int, body []byte) error {
			return callHandler(router, &mem, "/v1/allocate", body)
		}); err != nil {
			return err
		}
		shards := make([]*conn, len(st.Shards))
		for i, addr := range st.Shards {
			cn, err := dial(addr, requestTimeout)
			if err != nil {
				return err
			}
			defer cn.close()
			shards[i] = cn
		}
		if err := pass(spanShard, spanRouter, func(_ *base, _ []float64, owner int, body []byte) error {
			status, _, err := shards[owner].do("POST", "/v1/allocate", body)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("shard %d: status %d", owner, status)
			}
			return err
		}); err != nil {
			return err
		}
		parent = spanShard
	}
	handlers := make([]http.Handler, len(st.Shards))
	for i := range handlers {
		handlers[i] = st.shardHandler(i)
	}
	if err := pass(spanHTTP, parent, func(_ *base, _ []float64, owner int, body []byte) error {
		return callHandler(handlers[owner], &mem, "/v1/allocate", body)
	}); err != nil {
		return err
	}
	if err := pass(spanAllocate, spanHTTP, func(b *base, sig []float64, owner int, _ []byte) error {
		var features [][]float64
		if spec.Features {
			features = b.Features
		}
		return st.allocate(owner, sig, features, spec.Allocator)
	}); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		b, sig, ok := request(i)
		if !ok {
			continue
		}
		_ = tr.timed(i, spanKNN, spanAllocate, func() error { pol.knnIndex(sig); return nil })
		if err := tr.timed(i, spanDefine, spanAllocate, func() error { return pol.defineEnv(sig) }); err != nil {
			return err
		}
		if dcta(i) {
			if err := tr.timed(i, spanCombine, spanAllocate, func() error { return pol.combine(b.Features) }); err != nil {
				return err
			}
			_ = tr.timed(i, spanPack, spanAllocate, func() error { pol.packScores(); return nil })
		} else {
			if err := tr.timed(i, spanRollout, spanAllocate, func() error { return pol.rollout(1) }); err != nil {
				return err
			}
			_ = tr.timed(i, spanPack, spanAllocate, func() error { pol.packGuard(); return nil })
		}
	}
	return nil
}

// unitNs is how many nanoseconds one of a time unit holds.
func unitNs(unit string) float64 {
	switch unit {
	case "us":
		return 1e3
	case "ms":
		return 1e6
	case "s":
		return 1e9
	}
	return 1
}

// Probe timing: a fast probe is called in batches sized to ~2 ms and
// reports the median batch's time per operation; a slow one reports the
// median of three single calls.
const (
	probeBatchTarget = 2 * time.Millisecond
	probeBatches     = 15
	probeSlowCalls   = 3
)

// timeProbe returns the probe's time per operation in ns and the number of
// timings the median rests on.
func timeProbe(p probe, quick bool) (float64, int, error) {
	perCall := p.PerCall
	if perCall == 0 {
		perCall = 1
	}
	batches, slowCalls := probeBatches, probeSlowCalls
	if quick {
		batches, slowCalls = 3, 1
	}
	if p.Slow {
		var runs []float64
		for i := 0; i < slowCalls; i++ {
			start := time.Now()
			if err := p.Fn(); err != nil {
				return 0, 0, err
			}
			runs = append(runs, float64(time.Since(start).Nanoseconds())/perCall)
		}
		return median(runs), len(runs), nil
	}
	// Warm up and size the batch.
	start := time.Now()
	if err := p.Fn(); err != nil {
		return 0, 0, err
	}
	once := time.Since(start)
	iters := int(probeBatchTarget / max(once, time.Microsecond/10))
	iters = max(1, min(iters, 100000))
	var runs []float64
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := p.Fn(); err != nil {
				return 0, 0, err
			}
		}
		runs = append(runs, float64(time.Since(start).Nanoseconds())/float64(iters)/perCall)
	}
	return median(runs), len(runs), nil
}
