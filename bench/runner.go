package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	Spec    workloadSpec
	Seed    int64
	Seconds float64
	Clients int  // 0 = the workload's default
	Setups  int  // how many hosts to set up; the last one runs the window
	Smoke   bool // small world everywhere
	// TraceDir, when set, also measures the per-layer metrics after the
	// timed window, while the host is still up: the differential round
	// trips, the traced run (spans are written here) and the probes.
	TraceDir string
}

// runResult is what one run measured. Metrics holds every metric the run
// could compute, by name; a metric that does not apply is absent.
type runResult struct {
	Workload  string             `json:"workload"`
	Seconds   float64            `json:"seconds"`
	Clients   int                `json:"clients"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples is the sample count behind a metric; Spread its relative
	// inter-quartile range over the run's one-second windows.
	Samples  map[string]int     `json:"samples"`
	Spread   map[string]float64 `json:"spread"`
	Tail     float64            `json:"tail_percentile"`
	Failures []string           `json:"failures,omitempty"`
}

// defaultClients is min(nproc, 2): the generator shares the host's cores
// with the system it measures.
func defaultClients() int { return min(runtime.NumCPU(), 2) }

const (
	requestTimeout = 60 * time.Second
	maxFailureLogs = 8
	windowNs       = int64(time.Second)
)

// recording is one client's measurements; clients never share one.
type recording struct {
	attempted, failed int
	failures          []string

	at       []int64   // ns since the window opened, per valid allocate
	lat      []float64 // client-observed allocate latency, ns
	srv      []float64 // the answer's latency_ns
	value    []float64 // plan value under the truth ÷ the oracle's
	coldLat  []float64 // latency of answers that led a training, ns
	coldWait []float64 // that latency minus the answer's train_ns
	fbLat    []float64 // feedback latency, ns
	degraded int
	hits     int // answered from a resident policy
	replica  int // of which replica-held
	missed   int // slower than the deadline, or failed

	pt, ptRM    []float64 // ns
	exec        []float64 // DecisionReadyAt, ns
	tasks       []float64
	liveOverSim []float64
	fallbacks   int // plans that never reached the coverage target themselves
}

func (r *recording) fail(format string, args ...any) {
	r.failed++
	r.missed++
	if len(r.failures) < maxFailureLogs {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *recording) merge(o *recording) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.failures = append(r.failures, o.failures...)
	r.at = append(r.at, o.at...)
	r.lat = append(r.lat, o.lat...)
	r.srv = append(r.srv, o.srv...)
	r.value = append(r.value, o.value...)
	r.coldLat = append(r.coldLat, o.coldLat...)
	r.coldWait = append(r.coldWait, o.coldWait...)
	r.fbLat = append(r.fbLat, o.fbLat...)
	r.degraded += o.degraded
	r.hits += o.hits
	r.replica += o.replica
	r.missed += o.missed
	r.pt = append(r.pt, o.pt...)
	r.ptRM = append(r.ptRM, o.ptRM...)
	r.exec = append(r.exec, o.exec...)
	r.tasks = append(r.tasks, o.tasks...)
	r.liveOverSim = append(r.liveOverSim, o.liveOverSim...)
	r.fallbacks += o.fallbacks
}

// session is one booted host plus what a client needs to drive it.
type session struct {
	w     *world
	spec  workloadSpec
	seed  int64
	t     hostInfo // where the system listens: a child host, or this process
	bases []base
	// quick shrinks the sample counts of the per-layer measurements (smoke).
	quick bool
	// clients numbers the clients ever opened, so no two share a feedback
	// seq range: the server drops a seq it has seen.
	clients atomic.Int64
}

func newSession(w *world, spec workloadSpec, seed int64) *session {
	s := &session{w: w, spec: spec, seed: seed, bases: w.Eval}
	if spec.StoreBases {
		s.bases = w.Stored
	}
	return s
}

// client is one closed-loop caller: its own connection, stream and scratch.
type client struct {
	s      *session
	cn     *conn
	gen    *generator
	define func(int, []float64) []float64
	rec    *recording
	ans    answer
	body   []byte
	usedT  []float64
	usedV  []float64
	fbSeq  int64 // last feedback seq sent; unique across clients
	fbSent int
	opened time.Time
}

func (s *session) newClient(stream int, opened time.Time) (*client, error) {
	cn, err := dial(s.t.Addr, requestTimeout)
	if err != nil {
		return nil, err
	}
	return &client{
		s: s, cn: cn, rec: &recording{}, opened: opened,
		gen:    newGenerator(s.seed, stream, s.bases, s.spec, s.w.SigStd, s.w.nearest),
		define: s.w.newDefiner(),
		usedT:  make([]float64, len(s.w.Limits.ProcCap)),
		usedV:  make([]float64, len(s.w.Limits.ProcCap)),
		fbSeq:  s.clients.Add(1) << 32,
	}, nil
}

// allocate issues one allocate for a base and signature, validates the
// answer and records it. ok is false when the request failed; lat is the
// client-observed latency either way.
func (c *client) allocate(b *base, sig []float64) (lat time.Duration, ok bool) {
	rec := c.rec
	c.body = appendAllocateBody(c.body[:0], sig, b, c.s.spec.Allocator, c.s.spec.Features)
	start := time.Now()
	status, resp, err := c.cn.do("POST", "/v1/allocate", c.body)
	lat = time.Since(start)
	rec.attempted++
	if err != nil {
		rec.fail("allocate: %v", err)
		if err := c.cn.redial(); err != nil {
			rec.fail("redial: %v", err)
		}
		return lat, false
	}
	if status != http.StatusOK {
		rec.fail("allocate: status %d: %.200s", status, resp)
		return lat, false
	}
	if err := parseAnswer(resp, &c.ans); err != nil {
		rec.fail("allocate: %v", err)
		return lat, false
	}
	var defined []float64
	if !c.ans.degraded() {
		defined = c.define(b.Cluster, sig)
	}
	if err := checkAnswer(&c.s.w.Limits, &c.ans, b.Cluster, defined, c.usedT, c.usedV); err != nil {
		rec.fail("invalid answer: %v", err)
		return lat, false
	}
	ns := float64(lat.Nanoseconds())
	rec.at = append(rec.at, start.Sub(c.opened).Nanoseconds())
	rec.lat = append(rec.lat, ns)
	rec.srv = append(rec.srv, float64(c.ans.LatencyNanos))
	if b.Oracle > 0 { // an epoch in which nothing matters has no ratio
		rec.value = append(rec.value, planValue(c.ans.Allocation, b.Truth)/b.Oracle)
	}
	if c.ans.degraded() {
		rec.degraded++
	}
	switch c.ans.Cache {
	case "replica":
		rec.replica++
		rec.hits++
	case "hit", "warm", "speculative":
		rec.hits++
	}
	if c.ans.cold() {
		rec.coldLat = append(rec.coldLat, ns)
		rec.coldWait = append(rec.coldWait, ns-float64(c.ans.TrainNanos))
	}
	if !c.s.spec.EdgeWorkers && lat > c.s.spec.Deadline {
		rec.missed++
	}
	return lat, true
}

// feedback reports the last answered allocation as executed.
func (c *client) feedback(b *base, sig []float64) {
	rec := c.rec
	c.fbSeq++
	c.fbSent++
	drift := c.s.spec.DriftEvery > 0 && c.fbSent%c.s.spec.DriftEvery == 0
	c.body = appendFeedbackBody(c.body[:0], sig, b, c.ans.Allocation, drift, c.fbSeq)
	start := time.Now()
	status, resp, err := c.cn.do("POST", "/v1/feedback", c.body)
	lat := time.Since(start)
	rec.attempted++
	if err != nil {
		rec.fail("feedback: %v", err)
		if err := c.cn.redial(); err != nil {
			rec.fail("redial: %v", err)
		}
		return
	}
	var fb struct {
		Samples   int  `json:"samples"`
		Duplicate bool `json:"duplicate"`
	}
	switch {
	case status != http.StatusOK:
		rec.fail("feedback: status %d: %.200s", status, resp)
	case json.Unmarshal(resp, &fb) != nil || fb.Duplicate || fb.Samples != len(b.Truth):
		rec.fail("feedback: bad answer %.200s", resp)
	default:
		rec.fbLat = append(rec.fbLat, float64(lat.Nanoseconds()))
	}
}

// loop drives the client until the deadline: allocates (with the workload's
// feedback cadence), or allocate → dispatch epochs on edge_pt.
func (c *client) loop(until time.Time) {
	spec := c.s.spec
	var randomPlan func([]float64) ([]int, []float64, error)
	if spec.EdgeWorkers {
		randomPlan = c.s.w.newRandomPlanner(c.s.seed)
	}
	for i := 1; time.Now().Before(until); i++ {
		idx, sig := c.gen.next()
		b := &c.s.bases[idx]
		lat, ok := c.allocate(b, sig)
		if !ok {
			continue
		}
		if spec.FeedbackEvery > 0 && i%spec.FeedbackEvery == 0 {
			c.feedback(b, sig)
		}
		if spec.EdgeWorkers {
			c.dispatch(b, lat, i%edgeRMEvery == 0, randomPlan)
		}
	}
}

// dispatch executes the answered plan on the live workers until 80% of the
// epoch's true importance is covered (executePlan): PT = decision latency +
// that time. With rm it also dispatches a RandomMapping plan for the same
// epoch.
func (c *client) dispatch(b *base, decision time.Duration, rm bool, randomPlan func([]float64) ([]int, []float64, error)) {
	rec, w := c.rec, c.s.w
	rep, err := w.executePlan(c.s.t.Workers, c.s.t.Controller, b.Truth, c.ans.Allocation, nil)
	if err != nil {
		rec.fail("dispatch: %v", err)
	} else {
		if rep.Fallback {
			rec.fallbacks++
		}
		pt := decision + rep.Ready
		rec.pt = append(rec.pt, float64(pt.Nanoseconds()))
		rec.exec = append(rec.exec, float64(rep.Ready.Nanoseconds()))
		rec.tasks = append(rec.tasks, float64(rep.Tasks))
		if rep.SimS > 0 {
			rec.liveOverSim = append(rec.liveOverSim, rep.Ready.Seconds()/(rep.SimS*edgeTimeScale))
		}
		if pt > c.s.spec.Deadline {
			rec.missed++
		}
	}
	if !rm {
		return
	}
	start := time.Now()
	plan, prio, err := randomPlan(b.Truth)
	if err != nil {
		rec.fail("random plan: %v", err)
		return
	}
	rmDecision := time.Since(start)
	rep, err = w.executePlan(c.s.t.Workers, c.s.t.Controller, b.Truth, plan, prio)
	if err != nil {
		rec.fail("dispatch random plan: %v", err)
		return
	}
	rec.ptRM = append(rec.ptRM, float64((rmDecision + rep.Ready).Nanoseconds()))
}

// drive runs n concurrent clients for d and returns their merged recording.
func (s *session) drive(n int, firstStream int, d time.Duration) (*recording, time.Duration, error) {
	opened := time.Now()
	until := opened.Add(d)
	clients := make([]*client, n)
	for i := range clients {
		c, err := s.newClient(firstStream+i, opened)
		if err != nil {
			for _, prev := range clients[:i] {
				prev.cn.close()
			}
			return nil, 0, err
		}
		clients[i] = c
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			defer c.cn.close()
			c.loop(until)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(opened)
	total := &recording{}
	for _, c := range clients {
		total.merge(c.rec)
	}
	return total, elapsed, nil
}

// sweep touches every base once, sequentially, so each cluster the workload
// will use has trained before the warm traffic starts.
func (s *session) sweep() (*recording, error) {
	c, err := s.newClient(1<<20, time.Now())
	if err != nil {
		return nil, err
	}
	defer c.cn.close()
	for i := range s.bases {
		c.allocate(&s.bases[i], s.bases[i].Sig)
	}
	return c.rec, nil
}

// Stream numbering: each phase draws from its own streams, so the timed
// window's requests do not depend on how long the prewarm ran.
const (
	timedStreams   = 0
	prewarmStreams = 1000
	probeStreams   = 2000
)

// runWorkload sets the workload up cfg.Setups times, each on a host of its
// own, runs the timed window against the last one and computes the metrics.
// setup_s and peak_rss_mb are medians over the hosts: the high-water mark is
// reached while the sweep trains, and where the GC happens to run then moves
// it from process to process (warm_crl: 250–320 MB on one host).
func runWorkload(w *world, cfg runConfig) (*runResult, error) {
	spec := cfg.Spec
	clients := cfg.Clients
	if clients == 0 {
		clients = spec.Clients
	}
	if clients == 0 {
		clients = defaultClients()
	}
	if clients > runtime.NumCPU() || runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return nil, fmt.Errorf("refusing %d clients at GOMAXPROCS %d on %d CPUs: the generator would time-slice against the system it measures",
			clients, runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	s := newSession(w, spec, cfg.Seed)
	s.quick = cfg.Smoke
	pre := &recording{}
	var setups, peaks []float64
	var h *host
	defer func() {
		if h != nil {
			h.stop()
		}
	}()
	for k := 0; k < max(1, cfg.Setups); k++ {
		if h != nil {
			if err := s.notePeakRSS(&peaks); err != nil {
				return nil, err
			}
			h.stop()
			h = nil
		}
		start := time.Now()
		var err error
		if h, err = startHost(spec, cfg.Smoke); err != nil {
			return nil, err
		}
		s.t = h.hostInfo
		if err := s.prewarm(clients, pre); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	before, err := s.snapshot()
	if err != nil {
		return nil, err
	}
	rec, elapsed, err := s.drive(clients, timedStreams, time.Duration(cfg.Seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	after, err := s.snapshot()
	if err != nil {
		return nil, err
	}
	if err := s.notePeakRSS(&peaks); err != nil {
		return nil, err
	}

	res := &runResult{
		Workload: spec.Name, Seconds: elapsed.Seconds(), Clients: clients,
		// Set-up requests are validated like any other: a bad answer during
		// the sweep fails the run too.
		Attempted: rec.attempted + pre.attempted, Failed: rec.failed + pre.failed,
		Failures: append(pre.failures, rec.failures...),
		Metrics:  map[string]float64{}, Samples: map[string]int{}, Spread: map[string]float64{},
	}
	res.put("setup_s", median(setups), len(setups))
	res.put("peak_rss_mb", median(peaks), len(peaks))
	res.put("experiments.scenario_build_s", s.t.ScenarioBuildS, 1)
	res.put("serve.prewarm_s", setups[len(setups)-1]-s.t.ScenarioBuildS, 1)
	s.clientMetrics(res, rec, elapsed)
	s.counterMetrics(res, rec, before, after, elapsed)
	if cfg.TraceDir != "" {
		if err := s.differentialMetrics(res); err != nil {
			return nil, err
		}
		if cfg.Smoke {
			s.spec.TraceRequests = min(s.spec.TraceRequests, 40)
		}
		if err := traceRun(s, res, clients, cfg.TraceDir); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// prewarm finishes a host's set-up: every base touched once, sequentially,
// then warm traffic from all clients.
func (s *session) prewarm(clients int, into *recording) error {
	swept, err := s.sweep()
	if err != nil {
		return err
	}
	into.merge(swept)
	warm := prewarmTraffic
	if s.quick {
		warm /= 4
	}
	warmed, _, err := s.drive(clients, prewarmStreams, warm)
	if err != nil {
		return err
	}
	into.merge(warmed)
	return nil
}

// notePeakRSS appends the current host's resident-set high-water mark.
func (s *session) notePeakRSS(peaks *[]float64) error {
	rss, err := procPeakRSSMB(s.t.PID)
	if err != nil {
		return err
	}
	*peaks = append(*peaks, rss)
	return nil
}

func (r *runResult) put(name string, v float64, n int) {
	if n == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	r.Metrics[name] = v
	r.Samples[name] = n
}

// clientMetrics computes what the clients observed.
func (s *session) clientMetrics(res *runResult, rec *recording, elapsed time.Duration) {
	n := len(rec.lat)
	lat := sortedCopy(rec.lat)
	res.Tail = tailPercentile(n)
	res.put("alloc_p50_us", quantile(lat, 0.5)/1e3, n)
	res.put("alloc_p95_us", quantile(lat, 0.95)/1e3, n)
	res.put("alloc_p99_us", windowedP99(rec.at, rec.lat, windowNs)/1e3, n)
	res.put("alloc_rps", float64(n)/elapsed.Seconds(), n)
	res.put("value_ratio", mean(rec.value), n)
	res.put("serve.reported_p50_us", median(rec.srv)/1e3, n)
	// put drops a metric without samples, so an empty recording needs no guard.
	res.put("serve.cache_hit_share", float64(rec.hits)/float64(n), n)
	res.put("cluster.replica_hit_share", float64(rec.replica)/float64(n), n)
	res.put("degraded_rate", float64(rec.degraded)/float64(n), n)
	res.put("fail_rate", float64(rec.failed)/float64(rec.attempted), rec.attempted)
	res.put("deadline_miss_rate", float64(rec.missed)/float64(rec.attempted), rec.attempted)
	for name, f := range map[string]func([]float64) float64{
		"alloc_p50_us": func(v []float64) float64 { return quantile(sortedCopy(v), 0.5) },
		"alloc_p95_us": func(v []float64) float64 { return quantile(sortedCopy(v), 0.95) },
		"alloc_rps":    func(v []float64) float64 { return float64(len(v)) },
	} {
		per := windowValues(rec.at, rec.lat, windowNs, f)
		if name == "alloc_rps" && len(per) > 1 {
			per = per[:len(per)-1] // the last window is cut short by the deadline
		}
		res.Spread[name] = relIQR(per)
	}
	cold := sortedCopy(rec.coldLat)
	res.put("cold_p50_ms", quantile(cold, 0.5)/1e6, len(cold))
	res.put("cold_p95_ms", quantile(cold, 0.95)/1e6, len(cold))
	res.put("serve.train_wait_ms", median(rec.coldWait)/1e6, len(rec.coldWait))
	res.put("feedback_p50_us", median(rec.fbLat)/1e3, len(rec.fbLat))

	pt := sortedCopy(rec.pt)
	res.put("pt_p50_ms", quantile(pt, 0.5)/1e6, len(pt))
	res.put("pt_p95_ms", quantile(pt, 0.95)/1e6, len(pt))
	res.put("pt_speedup_vs_rm", median(rec.ptRM)/quantile(pt, 0.5), len(rec.ptRM))
	if s.spec.EdgeWorkers {
		res.put("edgenet.decision_us", quantile(lat, 0.5)/1e3, n)
		res.put("edgenet.exec_ms", median(rec.exec)/1e6, len(rec.exec))
		res.put("edgenet.tasks_dispatched", mean(rec.tasks), len(rec.tasks))
		res.put("edgesim.live_over_sim", median(rec.liveOverSim), len(rec.liveOverSim))
		res.put("edgenet.fallback_share", float64(rec.fallbacks)/float64(len(pt)), len(pt))
	}
}

// snapshot is every counter read from outside the host at one instant:
// /v1/stats of each node (summed) and of the router, the host's CPU time
// and memory statistics.
type snapshot struct {
	nodes  map[string]float64 // serve nodes' /v1/stats, summed
	router map[string]float64 // router's /v1/stats (nil on a single node)
	cpuS   float64
	mem    memStats
}

func (s *session) snapshot() (*snapshot, error) {
	snap := &snapshot{nodes: map[string]float64{}}
	for _, addr := range s.t.Shards {
		var raw any
		if err := getJSON("http://"+addr+"/v1/stats", &raw); err != nil {
			return nil, err
		}
		flatten("", raw, snap.nodes)
	}
	if s.spec.Router {
		var raw any
		if err := getJSON("http://"+s.t.Addr+"/v1/stats", &raw); err != nil {
			return nil, err
		}
		snap.router = map[string]float64{}
		flatten("", raw, snap.router)
	}
	if err := getJSON("http://"+s.t.Ctl+"/memstats", &snap.mem); err != nil {
		return nil, err
	}
	var err error
	snap.cpuS, err = procCPUSeconds(s.t.PID)
	return snap, err
}

var statsClient = &http.Client{Timeout: 10 * time.Second}

func getJSON(url string, dst any) error {
	resp, err := statsClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// flatten adds every number of a decoded JSON document into out under its
// dotted path; array elements are keyed by their "id" field, or their index.
func flatten(prefix string, v any, out map[string]float64) {
	switch t := v.(type) {
	case float64:
		out[prefix] += t
	case map[string]any:
		for k, child := range t {
			key := k
			if prefix != "" {
				key = prefix + "." + k
			}
			flatten(key, child, out)
		}
	case []any:
		for i, child := range t {
			key := fmt.Sprint(i)
			if m, ok := child.(map[string]any); ok {
				if id, ok := m["id"].(string); ok {
					key = id
				}
			}
			flatten(prefix+"."+key, child, out)
		}
	}
}

// counterMetrics computes the metrics that are differences of counters over
// the timed window.
func (s *session) counterMetrics(res *runResult, rec *recording, before, after *snapshot, elapsed time.Duration) {
	node := func(key string) float64 { return after.nodes[key] - before.nodes[key] }
	count := func(name, key string) { res.put(name, node(key), 1) }
	count("serve.evictions", "cache.evictions")
	count("serve.trainings", "cache.trainings")
	count("serve.warm_starts", "cache.warm_starts")
	count("serve.early_stops", "cache.early_stops")
	count("serve.refits", "refits")
	count("serve.drift_invalidations", "cache.drift_invalidations")
	count("cluster.replication_pushes", "replication.pushes")
	count("cluster.replication_dropped", "replication.replication_dropped")
	if runs := node("cache.batch_runs"); runs > 0 {
		res.put("serve.batch_mean", node("cache.batched_requests")/runs, int(runs))
	} else {
		res.put("serve.batch_mean", 0, 1)
	}
	if allocs := node("allocates"); allocs > 0 {
		res.put("serve.solo_share", node("cache.solo_requests")/allocs, int(allocs))
	}
	gossip := node("membership.pings_sent") + node("membership.indirect_reqs") + node("membership.full_syncs")
	if after.router != nil {
		router := func(key string) float64 { return after.router[key] - before.router[key] }
		res.put("cluster.retries", router("retries"), 1)
		res.put("cluster.ejections", router("ejections"), 1)
		res.put("cluster.rebalances", router("rebalances"), 1)
		gossip += router("membership.pings_sent") + router("membership.indirect_reqs") + router("membership.full_syncs")
		var proxied []float64
		for key := range after.router {
			if strings.HasPrefix(key, "shards.") && strings.HasSuffix(key, ".proxied") {
				proxied = append(proxied, router(key))
			}
		}
		if m := mean(proxied); m > 0 {
			res.put("cluster.shard_balance", maxOf(proxied)/m, len(proxied))
		}
	}
	res.put("cluster.gossip_msgs_per_s", gossip/elapsed.Seconds(), 1)

	requests := len(rec.lat) + len(rec.fbLat)
	if requests > 0 {
		res.put("runtime.cpu_us_per_req", (after.cpuS-before.cpuS)*1e6/float64(requests), requests)
		res.put("runtime.heap_b_per_req", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/float64(requests), requests)
	}
	res.put("runtime.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC), 1)
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// Each differential measurement sends up to differentialSamples requests,
// one client, after the timed window, and stops early at differentialBudget
// (cold_churn's requests train).
const (
	differentialSamples = 1000
	differentialBudget  = 1500 * time.Millisecond
)

// differentialMetrics measures what only a subtraction can show from
// outside: the floor RTT against the host's no-op handler, and the same
// requests through the router and straight to the shard that owns them.
func (s *session) differentialMetrics(res *runResult) error {
	samples, budget := differentialSamples, differentialBudget
	if s.quick {
		samples, budget = samples/5, budget/5
	}
	ctl, err := dial(s.t.Ctl, requestTimeout)
	if err != nil {
		return err
	}
	defer ctl.close()
	var null []float64
	for i := 0; i < samples; i++ {
		start := time.Now()
		if _, _, err := ctl.do("GET", "/null", nil); err != nil {
			return fmt.Errorf("null handler: %w", err)
		}
		null = append(null, float64(time.Since(start).Nanoseconds()))
	}
	res.put("client.null_rtt_us", median(null)/1e3, len(null))

	front, err := dial(s.t.Addr, requestTimeout)
	if err != nil {
		return err
	}
	defer front.close()
	shards := make([]*conn, len(s.t.Shards))
	for i, addr := range s.t.Shards {
		if shards[i], err = dial(addr, requestTimeout); err != nil {
			return err
		}
		defer shards[i].close()
	}
	gen := newGenerator(s.seed, probeStreams, s.bases, s.spec, s.w.SigStd, s.w.nearest)
	var via, direct []float64
	var body []byte
	began := time.Now()
	for i := 0; i < samples && time.Since(began) < budget; i++ {
		idx, sig := gen.next()
		b := &s.bases[idx]
		body = appendAllocateBody(body[:0], sig, b, s.spec.Allocator, s.spec.Features)
		owner := 0
		if b.Cluster < len(s.t.Owners) {
			owner = s.t.Owners[b.Cluster]
		}
		for _, leg := range []struct {
			cn  *conn
			out *[]float64
		}{{front, &via}, {shards[owner], &direct}} {
			start := time.Now()
			status, _, err := leg.cn.do("POST", "/v1/allocate", body)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("differential allocate: status %d: %v", status, err)
			}
			*leg.out = append(*leg.out, float64(time.Since(start).Nanoseconds()))
		}
	}
	res.put("client.direct_rtt_us", median(direct)/1e3, len(direct))
	if s.spec.Router {
		res.put("cluster.router_hop_us", (median(via)-median(direct))/1e3, len(via))
	}
	return nil
}
