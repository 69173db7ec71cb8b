package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rawhttp"
	"repro/internal/serve"
	"repro/internal/wire"
)

// Shard names one dcta-server replica: a stable id (the ring placement
// key, so a shard that rejoins at a new address keeps its ranges) and the
// address the router proxies to.
type Shard struct {
	ID   string
	Addr string
}

// ParseSeeds parses a "-join" seed list ("host:port,host:port,..."): bare
// addresses, no ids — a joiner only needs somewhere to dial, identities
// come back over the wire. Rejects duplicates.
func ParseSeeds(spec string) ([]string, error) {
	var out []string
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if strings.Contains(part, "=") {
			return nil, fmt.Errorf("cluster: bad join seed %q (want host:port, no id)", part)
		}
		if seen[part] {
			return nil, fmt.Errorf("cluster: duplicate join seed %q", part)
		}
		seen[part] = true
		out = append(out, part)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: no join seeds in %q", spec)
	}
	return out, nil
}

// AdvertiseAddr resolves the address fleet members dial a node back at: an
// explicit advertise address wins, else the listen address when it names a
// host. A bare ":port" names none, so it is an error.
func AdvertiseAddr(advertise, listen string) (string, error) {
	if advertise != "" {
		return advertise, nil
	}
	if host, _, err := net.SplitHostPort(listen); err == nil && host != "" {
		return listen, nil
	}
	return "", fmt.Errorf("cluster: -advertise required: listen address %q names no host peers can dial", listen)
}

// RouterConfig tunes the routing tier.
type RouterConfig struct {
	// VNodes is the per-shard virtual-node count (default 64).
	VNodes int
	// ProbeEvery is the liveness probe cadence (default 250ms).
	ProbeEvery time.Duration
	// LivenessMisses ejects a shard after this many consecutive failed
	// healthz probes (default 3). Proxy I/O failures eject immediately —
	// probing exists to notice silent deaths and to re-admit rejoiners.
	LivenessMisses int
	// ProbeTimeout bounds one healthz probe (default 1s).
	ProbeTimeout time.Duration
	// ProxyTimeout bounds one proxied request round trip (default 30s —
	// a feedback that refits the local model answers after the fit).
	ProxyTimeout time.Duration
	// ProbeJitterSeed seeds the per-shard probe phase offsets (default 1).
	// Each shard's liveness probe fires at a deterministic offset within
	// the ProbeEvery window instead of every probe firing in lockstep, so
	// a large fleet never takes a synchronized probe storm.
	ProbeJitterSeed int64
	// Now is the stats clock (default time.Now).
	Now func() time.Time
	// Logf sinks membership transitions (default log.Printf).
	Logf func(format string, args ...any)
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.VNodes < 1 {
		c.VNodes = DefaultVNodes
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 250 * time.Millisecond
	}
	if c.LivenessMisses < 1 {
		c.LivenessMisses = 3
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.ProxyTimeout <= 0 {
		c.ProxyTimeout = 30 * time.Second
	}
	if c.ProbeJitterSeed == 0 {
		c.ProbeJitterSeed = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// shardState is the router's view of one replica: its proxy-connection
// pool, liveness, and per-shard counters.
type shardState struct {
	id, addr string

	// alive is the router's local verdict (healthz probes and in-request
	// I/O outcomes). gossipDead is the membership plane's verdict: set
	// when the converged view confirms the member dead, cleared by a
	// gossip re-admission or by a locally successful probe (direct
	// evidence beats a stale rumor). A shard routes only while alive and
	// not gossipDead.
	alive      atomic.Bool
	gossipDead atomic.Bool

	poolMu sync.Mutex
	pool   []*rawhttp.Conn

	// probeMu serializes liveness probes of this shard: Run's ticker and a
	// test-driven ProbeOnce may overlap, and misses/probeConn are plain
	// fields. One probe pass per shard at a time also keeps the miss count
	// meaning "consecutive probe windows", not "concurrent attempts".
	probeMu   sync.Mutex
	misses    int           // consecutive failed probes; guarded by probeMu
	probeConn *rawhttp.Conn // guarded by probeMu

	proxied  atomic.Int64 // requests this shard answered (any status)
	degraded atomic.Int64 // answers from the shard's degraded path
	nonOK    atomic.Int64 // non-2xx answers passed through
	ioErrors atomic.Int64 // proxy round trips that failed at the wire
}

func (ss *shardState) getConn(timeout time.Duration) (*rawhttp.Conn, error) {
	ss.poolMu.Lock()
	if n := len(ss.pool); n > 0 {
		c := ss.pool[n-1]
		ss.pool = ss.pool[:n-1]
		ss.poolMu.Unlock()
		return c, nil
	}
	ss.poolMu.Unlock()
	c, err := rawhttp.Dial(ss.addr)
	if err != nil {
		return nil, err
	}
	c.Timeout = timeout
	return c, nil
}

// connsPerShard bounds each shard's idle proxy-connection pool; excess
// connections are closed on release.
const connsPerShard = 64

func (ss *shardState) putConn(c *rawhttp.Conn) {
	ss.poolMu.Lock()
	if len(ss.pool) < connsPerShard {
		ss.pool = append(ss.pool, c)
		ss.poolMu.Unlock()
		return
	}
	ss.poolMu.Unlock()
	c.Close()
}

// dropConns closes every pooled connection (the shard died; they are all
// suspect).
func (ss *shardState) dropConns() {
	ss.poolMu.Lock()
	conns := ss.pool
	ss.pool = nil
	ss.poolMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Router is the cluster front-end: it terminates /v1/allocate and
// /v1/feedback, resolves each request's signature to its cluster key
// against the same environment store the shards were built from, and
// proxies the raw body to the key's ring owner over a pooled persistent
// connection. Failures never surface as 5xx while any shard survives: a
// wire error or 503 ejects the shard from the ring and the request retries
// on the key's new owner, whose cold/degraded path answers.
type Router struct {
	cfg   RouterConfig
	store *core.EnvironmentStore

	ring atomic.Pointer[Ring] // live members only

	mu     sync.RWMutex // membership transitions; readers guard the map
	shards map[string]*shardState
	order  []string // stable iteration order

	// membership is the gossip agent whose converged view this router
	// subscribes to (nil until AttachMembership, which runs before
	// serving).
	membership      *Agent
	membershipEpoch atomic.Uint64
	gossipJoins     atomic.Int64 // members learned from gossip, not flags

	started    time.Time
	requests   atomic.Int64
	retries    atomic.Int64
	ejections  atomic.Int64
	rejoins    atomic.Int64
	rebalances atomic.Int64 // ring rebuilds (ejections + rejoins)
	noShard    atomic.Int64 // 503s issued because no shard was live
	roundRobin atomic.Int64 // fallback routing for signature-less bodies

	wsPool sync.Pool // *proxyWS
}

// proxyWS is the pooled per-request proxy workspace.
type proxyWS struct {
	body  []byte
	frame []byte
	sig   []float64
}

// NewRouter builds a router over the deployment's environment store (every
// node derives the same store from the shared scenario seed, so router and
// shards agree on NearestIndex) and the initial member list. All members
// start live; the first failed round trip or missed probe window ejects.
// An empty shard list is a valid boot only when the member set arrives
// dynamically (AttachMembership): the router answers no-shard 503s until
// gossip populates the ring.
func NewRouter(store *core.EnvironmentStore, shards []Shard, cfg RouterConfig) (*Router, error) {
	if store == nil || store.Len() == 0 {
		return nil, core.ErrEmptyStore
	}
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:     cfg,
		store:   store,
		shards:  make(map[string]*shardState, len(shards)),
		started: cfg.Now(),
	}
	var ids []string
	for _, s := range shards {
		if _, dup := r.shards[s.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard id %q", s.ID)
		}
		ss := &shardState{id: s.ID, addr: s.Addr}
		ss.alive.Store(true)
		r.shards[s.ID] = ss
		r.order = append(r.order, s.ID)
		ids = append(ids, s.ID)
	}
	sort.Strings(r.order)
	ring, err := NewRing(cfg.VNodes, ids)
	if err != nil {
		return nil, err
	}
	r.ring.Store(ring)
	r.wsPool.New = func() any { return &proxyWS{} }
	return r, nil
}

// Ring snapshots the current live ring.
func (r *Router) Ring() *Ring { return r.ring.Load() }

// rebuildRingLocked recomputes the live ring after a membership change. A
// shard routes while both failure-detection inputs clear it: the router's
// local verdict (probes + in-request I/O) and the gossip plane's (a
// confirmed-dead member is out even if this router's probes lag).
func (r *Router) rebuildRingLocked() {
	var live []string
	for _, id := range r.order {
		ss := r.shards[id]
		if ss.alive.Load() && !ss.gossipDead.Load() {
			live = append(live, id)
		}
	}
	ring, err := NewRing(r.cfg.VNodes, live)
	if err != nil {
		// Unreachable: ids were validated at construction.
		r.cfg.Logf("cluster: ring rebuild: %v", err)
		return
	}
	r.ring.Store(ring)
	r.rebalances.Add(1)
}

// eject marks a shard dead and reassigns its ranges to the survivors.
// Idempotent: concurrent failures eject once.
func (r *Router) eject(ss *shardState, why string) {
	r.mu.Lock()
	if !ss.alive.Load() {
		r.mu.Unlock()
		return
	}
	ss.alive.Store(false)
	r.rebuildRingLocked()
	r.mu.Unlock()
	r.ejections.Add(1)
	ss.dropConns()
	r.cfg.Logf("cluster: shard %s (%s) ejected: %s; %d live", ss.id, ss.addr, why, r.Ring().Len())
}

// readmit marks a recovered shard live and hands its ranges back. A
// successful probe is first-hand evidence, so it also clears a stale
// gossip obituary — the membership plane converges on the refutation
// moments later, but routing doesn't wait for it.
func (r *Router) readmit(ss *shardState) {
	r.mu.Lock()
	if ss.alive.Load() && !ss.gossipDead.Load() {
		r.mu.Unlock()
		return
	}
	ss.alive.Store(true)
	ss.gossipDead.Store(false)
	r.rebuildRingLocked()
	r.mu.Unlock()
	r.rejoins.Add(1)
	r.cfg.Logf("cluster: shard %s (%s) rejoined; %d live", ss.id, ss.addr, r.Ring().Len())
}

// AttachMembership subscribes the router to a gossip agent's converged
// view. From then on the router's private probes are one failure-detection
// input, not the sole authority: the ring gains members the gossip plane
// admits (flag-free joins), loses members it confirms dead, and the
// membership epoch rides along into RouterStats. Call before serving.
func (r *Router) AttachMembership(a *Agent) {
	r.membership = a
	a.Subscribe(r.applyMembershipView)
}

// applyMembershipView folds one converged view into the router's member
// set. Unknown shard-role members are admitted at their advertised address
// (this is how a `-join`ed shard reaches every router without a flag
// change); known members keep their configured dial address, so a fault
// proxy interposed at construction stays in the path. A confirmed-dead
// member is masked out of the ring even if this router's own probes
// haven't noticed; a re-admitted one (the member refuted its obituary)
// unmasks. Suspects stay in the ring — suspicion is a grace window, not a
// verdict, and ejecting on rumor is exactly the single-prober failure mode
// this plane exists to remove.
func (r *Router) applyMembershipView(v View) {
	r.membershipEpoch.Store(v.Epoch)
	r.mu.Lock()
	changed := false
	for _, m := range v.Members {
		if m.Role != RoleShard {
			continue
		}
		ss, known := r.shards[m.ID]
		if !known {
			if m.State == StateDead || m.Addr == "" {
				continue
			}
			ss = &shardState{id: m.ID, addr: m.Addr}
			ss.alive.Store(true)
			r.shards[m.ID] = ss
			r.order = append(r.order, m.ID)
			sort.Strings(r.order)
			r.gossipJoins.Add(1)
			changed = true
			r.cfg.Logf("cluster: shard %s (%s) admitted via gossip", m.ID, m.Addr)
			continue
		}
		dead := m.State == StateDead
		if ss.gossipDead.Load() == dead {
			continue
		}
		inRingBefore := ss.alive.Load() && !ss.gossipDead.Load()
		ss.gossipDead.Store(dead)
		inRingAfter := ss.alive.Load() && !ss.gossipDead.Load()
		changed = true
		if inRingBefore && !inRingAfter {
			r.ejections.Add(1)
			ss.dropConns()
			r.cfg.Logf("cluster: shard %s (%s) ejected: gossip confirmed dead at inc %d", ss.id, ss.addr, m.Incarnation)
		} else if !inRingBefore && inRingAfter {
			r.rejoins.Add(1)
			r.cfg.Logf("cluster: shard %s (%s) re-admitted via gossip at inc %d", ss.id, ss.addr, m.Incarnation)
		}
	}
	if changed {
		r.rebuildRingLocked()
	}
	r.mu.Unlock()
}

// ProbeOffset is shard id's deterministic phase within the ProbeEvery
// window: a hash of (ProbeJitterSeed, id) spreads a fleet's probes across
// the window instead of firing them all at the tick. Deterministic by
// construction — two routers with one seed schedule identically, and a
// shard keeps its phase when members come and go.
func (r *Router) ProbeOffset(id string) time.Duration {
	h := fnv1a64(fmt.Sprintf("%d\x00%s", r.cfg.ProbeJitterSeed, id))
	return time.Duration(h % uint64(r.cfg.ProbeEvery))
}

// Run drives the liveness prober until ctx ends. An initial probe pass
// runs immediately so a topology that boots with a dead member converges
// before the first tick; after that each shard fires once per ProbeEvery
// window at its own jittered phase (ProbeOffset), so the fleet never takes
// a synchronized probe storm. Members learned from gossip mid-run enter
// the schedule on the next wakeup.
func (r *Router) Run(ctx context.Context) {
	r.ProbeOnce()
	next := make(map[string]time.Time)
	for {
		now := time.Now()
		wake := now.Add(r.cfg.ProbeEvery)
		var due []*shardState
		r.mu.RLock()
		ids := append([]string(nil), r.order...)
		states := make([]*shardState, len(ids))
		for i, id := range ids {
			states[i] = r.shards[id]
		}
		r.mu.RUnlock()
		for i, id := range ids {
			nd, ok := next[id]
			if !ok {
				nd = now.Add(r.ProbeOffset(id))
				next[id] = nd
			}
			if !nd.After(now) {
				due = append(due, states[i])
				for !nd.After(now) {
					nd = nd.Add(r.cfg.ProbeEvery)
				}
				next[id] = nd
			}
			if nd.Before(wake) {
				wake = nd
			}
		}
		if len(due) > 0 {
			var wg sync.WaitGroup
			for _, ss := range due {
				wg.Add(1)
				go func(ss *shardState) {
					defer wg.Done()
					r.probe(ss)
				}(ss)
			}
			wg.Wait()
		}
		sleep := time.Until(wake)
		if sleep < time.Millisecond {
			sleep = time.Millisecond
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(sleep):
		}
	}
}

// ProbeOnce probes every shard's /v1/healthz once, concurrently, applying
// the miss/eject/readmit rules. Exposed so tests can drive membership
// without timing dependence.
func (r *Router) ProbeOnce() {
	r.mu.RLock()
	states := make([]*shardState, 0, len(r.order))
	for _, id := range r.order {
		states = append(states, r.shards[id])
	}
	r.mu.RUnlock()
	var wg sync.WaitGroup
	for _, ss := range states {
		wg.Add(1)
		go func(ss *shardState) {
			defer wg.Done()
			r.probe(ss)
		}(ss)
	}
	wg.Wait()
}

var healthzFrame = rawhttp.BuildGetFrame("/healthz")

// probe runs one liveness check against one shard, serialized per shard by
// probeMu (Run's ticker and test-driven ProbeOnce calls may overlap). A
// cached connection that dies mid-probe gets one fresh-dial retry in the
// same pass: a restarted shard presents exactly that way (the stale
// connection fails at read, after the write already landed in the socket
// buffer), and one probe pass must be enough to re-admit it.
func (r *Router) probe(ss *shardState) {
	ss.probeMu.Lock()
	defer ss.probeMu.Unlock()
	ok := false
	for attempt := 0; attempt < 2 && !ok; attempt++ {
		if ss.probeConn == nil {
			c, err := rawhttp.Dial(ss.addr)
			if err != nil {
				break // unreachable at the wire; a second dial won't differ
			}
			c.Timeout = r.cfg.ProbeTimeout
			ss.probeConn = c
		}
		code, _, err := ss.probeConn.Do(healthzFrame)
		if err != nil {
			ss.probeConn.Close()
			ss.probeConn = nil
			continue
		}
		// A draining shard answers 503: treat as down so the ring
		// reassigns before its listener closes.
		ok = code == http.StatusOK
		break
	}
	if ok {
		ss.misses = 0
		r.readmit(ss)
		return
	}
	ss.misses++
	if ss.misses >= r.cfg.LivenessMisses && ss.alive.Load() {
		r.eject(ss, fmt.Sprintf("%d consecutive probe misses", ss.misses))
	}
}

// shardFor resolves the cluster key's live owner. key < 0 (no signature in
// the request) falls back to round-robin over the live set.
func (r *Router) shardFor(key int) *shardState {
	ring := r.ring.Load()
	if ring.Len() == 0 {
		return nil
	}
	var owner string
	if key >= 0 {
		owner = ring.Owner(key)
		if owner == "" {
			return nil
		}
	} else {
		nodes := ring.nodes
		owner = nodes[int(r.roundRobin.Add(1)-1)%len(nodes)]
	}
	r.mu.RLock()
	ss := r.shards[owner]
	r.mu.RUnlock()
	return ss
}

// routerNeedleDegraded classifies a proxied 2xx answer as degraded by
// scanning its bytes rather than decoding it.
var routerNeedleDegraded = []byte(`"mode":"` + serve.ModeDegraded + `"`)

// forward proxies one request body to the key's owner, retrying on the
// next owner after ejecting a failed shard. It returns the upstream status
// and body (aliasing conn buffers — consumed before the conn is pooled by
// the caller via done), or ok=false when no shard is live.
func (r *Router) forward(path string, ws *proxyWS, key int) (code int, body []byte, release func(), ok bool) {
	ws.frame = rawhttp.AppendFrame(ws.frame, path, ws.body)
	// One attempt per initially-live shard plus one: every failed attempt
	// ejects, so the loop strictly shrinks the live set and terminates.
	r.mu.RLock()
	attempts := len(r.order) + 1
	r.mu.RUnlock()
	for try := 0; try < attempts; try++ {
		ss := r.shardFor(key)
		if ss == nil {
			return 0, nil, nil, false
		}
		conn, err := ss.getConn(r.cfg.ProxyTimeout)
		if err != nil {
			ss.ioErrors.Add(1)
			r.eject(ss, "dial: "+err.Error())
			r.retries.Add(1)
			continue
		}
		code, respBody, err := conn.Do(ws.frame)
		if err != nil {
			conn.Close()
			ss.ioErrors.Add(1)
			r.eject(ss, "proxy: "+err.Error())
			r.retries.Add(1)
			continue
		}
		if code == http.StatusServiceUnavailable {
			// Draining or refusing: the shard is alive at the wire but out
			// of service. Treat like a death so the ranges move.
			ss.putConn(conn)
			ss.nonOK.Add(1)
			r.eject(ss, "503 from shard")
			r.retries.Add(1)
			continue
		}
		ss.proxied.Add(1)
		if code >= 300 {
			ss.nonOK.Add(1)
		} else if bytes.Contains(respBody, routerNeedleDegraded) {
			ss.degraded.Add(1)
		}
		release = func() { ss.putConn(conn) }
		return code, respBody, release, true
	}
	return 0, nil, nil, false
}

// handleProxy terminates one /v1/allocate or /v1/feedback request — kind says
// which body grammar — and relays it to its owning shard.
func (r *Router) handleProxy(w http.ResponseWriter, req *http.Request, kind wire.Kind) {
	if req.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	r.requests.Add(1)
	ws := r.wsPool.Get().(*proxyWS)
	defer r.putWS(ws)
	var err error
	ws.body, err = wire.ReadBody(ws.body[:0], http.MaxBytesReader(w, req.Body, wire.MaxBody))
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	// Routing needs only the signature: the scanner holds the rest of the
	// body to the shard decoder's grammar without decoding it. A body that
	// grammar rejects, or one without a signature, routes round-robin and
	// lets the shard own the 400 — the router never duplicates serve's
	// validation.
	key := -1
	if ws.sig, err = wire.ScanSignature(kind, ws.body, ws.sig); err == nil && len(ws.sig) > 0 {
		if k, _, err := r.store.NearestIndex(ws.sig); err == nil {
			key = k
		}
	}
	code, body, release, ok := r.forward(req.URL.Path, ws, key)
	if !ok {
		r.noShard.Add(1)
		writeJSONError(w, http.StatusServiceUnavailable, "no live shards")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
	release()
}

// putWS recycles ws unless an oversized body grew its buffers.
func (r *Router) putWS(ws *proxyWS) {
	if cap(ws.body) <= wire.MaxPooledBody {
		r.wsPool.Put(ws)
	}
}

// ShardMap renders the wire-level cluster description.
func (r *Router) ShardMap() ShardMap {
	ring := r.ring.Load()
	m := ShardMap{Version: ShardMapVersion, VNodes: r.cfg.VNodes}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, id := range r.order {
		ss := r.shards[id]
		info := ShardInfo{ID: id, Addr: ss.addr, Alive: ss.alive.Load() && !ss.gossipDead.Load()}
		if info.Alive {
			info.OwnedFraction = ring.OwnedFraction(id)
			info.RingPositions = r.cfg.VNodes
		}
		m.Shards = append(m.Shards, info)
	}
	return m
}

// ShardCounters is one shard's routing telemetry.
type ShardCounters struct {
	ShardInfo
	Proxied  int64 `json:"proxied"`
	Degraded int64 `json:"degraded"`
	NonOK    int64 `json:"non_2xx"`
	IOErrors int64 `json:"io_errors"`
}

// RouterStats is the router's /v1/stats payload: fleet-wide counters plus
// per-shard identity and outcomes. MembershipEpoch and Membership appear
// when the router gossips (AttachMembership); GossipJoins counts members
// the router learned from the membership plane rather than from NewRouter's
// shard list.
type RouterStats struct {
	UptimeSeconds   float64                `json:"uptime_s"`
	Requests        int64                  `json:"requests"`
	Retries         int64                  `json:"retries"`
	Ejections       int64                  `json:"ejections"`
	Rejoins         int64                  `json:"rejoins"`
	Rebalances      int64                  `json:"rebalances"`
	NoShard503s     int64                  `json:"no_shard_503s"`
	LiveShards      int                    `json:"live_shards"`
	VNodes          int                    `json:"vnodes"`
	MembershipEpoch uint64                 `json:"membership_epoch,omitempty"`
	GossipJoins     int64                  `json:"gossip_joins,omitempty"`
	Membership      *serve.MembershipStats `json:"membership,omitempty"`
	Shards          []ShardCounters        `json:"shards"`
}

// Stats snapshots the router counters.
func (r *Router) Stats() RouterStats {
	m := r.ShardMap()
	st := RouterStats{
		UptimeSeconds: r.cfg.Now().Sub(r.started).Seconds(),
		Requests:      r.requests.Load(),
		Retries:       r.retries.Load(),
		Ejections:     r.ejections.Load(),
		Rejoins:       r.rejoins.Load(),
		Rebalances:    r.rebalances.Load(),
		NoShard503s:   r.noShard.Load(),
		LiveShards:    r.ring.Load().Len(),
		VNodes:        r.cfg.VNodes,
	}
	if r.membership != nil {
		st.MembershipEpoch = r.membershipEpoch.Load()
		st.GossipJoins = r.gossipJoins.Load()
		st.Membership = r.membership.MembershipStats()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, info := range m.Shards {
		ss := r.shards[info.ID]
		st.Shards = append(st.Shards, ShardCounters{
			ShardInfo: info,
			Proxied:   ss.proxied.Load(),
			Degraded:  ss.degraded.Load(),
			NonOK:     ss.nonOK.Load(),
			IOErrors:  ss.ioErrors.Load(),
		})
	}
	return st
}

// NewHandler wires the router's HTTP front-end:
//
//	POST /v1/allocate — proxied to the signature's owning shard
//	POST /v1/feedback — proxied to the signature's owning shard
//	GET  /v1/stats    — RouterStats
//	GET  /v1/cluster  — ShardMap (the wire format)
//	GET  /healthz     — 200 while at least one shard is live
func NewHandler(r *Router) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/allocate", func(w http.ResponseWriter, req *http.Request) {
		r.handleProxy(w, req, wire.Allocate)
	})
	mux.HandleFunc("/v1/feedback", func(w http.ResponseWriter, req *http.Request) {
		r.handleProxy(w, req, wire.Feedback)
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.Stats())
	})
	mux.HandleFunc("/v1/cluster", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.ShardMap())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		if r.ring.Load().Len() == 0 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no live shards"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	if r.membership != nil {
		mux.HandleFunc(GossipPath, r.membership.Handler())
	}
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeJSONError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// ListenAndServe runs the router front-end and its liveness prober until
// ctx is canceled. The bound address is reported through ready (useful
// with ":0").
func ListenAndServe(ctx context.Context, addr string, r *Router, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	if ready != nil {
		ready(ln.Addr())
	}
	return ServeRouter(ctx, ln, r)
}

// ServeRouter is ListenAndServe over a pre-bound listener — LocalCluster
// binds first so the router's gossip agent can advertise a concrete address
// before serving starts.
func ServeRouter(ctx context.Context, ln net.Listener, r *Router) error {
	probeCtx, stopProbe := context.WithCancel(ctx)
	defer stopProbe()
	go r.Run(probeCtx)
	if r.membership != nil {
		go r.membership.Run(probeCtx)
	}
	hs := &http.Server{
		Handler:           NewHandler(r),
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return context.Background() },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return hs.Shutdown(shutdownCtx)
}
