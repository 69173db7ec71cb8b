package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/serve"
)

// LocalOptions shapes an in-process topology.
type LocalOptions struct {
	// Shards is the replica count (default 3).
	Shards int
	// VNodes is the per-shard virtual-node count (default DefaultVNodes).
	VNodes int
	// Serve configures every shard's server.
	Serve serve.Config
	// HTTP configures every shard's front-end.
	HTTP serve.HTTPOptions
	// Router configures the routing tier (VNodes is forced to match).
	Router RouterConfig
	// WrapShardAddr optionally interposes on the router→shard link: given a
	// shard's id and real address it returns the address the router should
	// dial (e.g. a netfault proxy) and a closer. Nil routes direct.
	WrapShardAddr func(id, addr string) (string, func(), error)
	// Gossip shapes the membership plane: every shard runs a SWIM agent on
	// its serve listener, and the router subscribes to the converged view
	// and re-shapes its ring on epoch bumps.
	Gossip LocalGossipOptions
	// Logf sinks progress lines (default: discard).
	Logf func(format string, args ...any)
}

// LocalGossipOptions tunes the in-process membership plane.
type LocalGossipOptions struct {
	// Interval between protocol ticks (default 40ms — test-speed).
	Interval time.Duration
	// ProbeTimeout bounds one direct ping (default 150ms).
	ProbeTimeout time.Duration
	// SuspicionTimeout is how long a suspect may stay unrefuted before it is
	// confirmed dead (default 600ms).
	SuspicionTimeout time.Duration
	// IndirectPeers is how many relays to try when a direct ping misses
	// (default 2).
	IndirectPeers int
	// Seed derives every member's deterministic probe-order and jitter
	// stream (default 1; member index is mixed in).
	Seed int64
	// WrapTransport optionally interposes on a member's gossip exchanges
	// (chaos tests inject directed partitions here). Nil uses direct HTTP.
	WrapTransport func(selfID string, t Transport) Transport
}

func (o LocalGossipOptions) withDefaults() LocalGossipOptions {
	if o.Interval <= 0 {
		o.Interval = 40 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 150 * time.Millisecond
	}
	if o.SuspicionTimeout <= 0 {
		o.SuspicionTimeout = 600 * time.Millisecond
	}
	if o.IndirectPeers <= 0 {
		o.IndirectPeers = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o LocalOptions) withDefaults() LocalOptions {
	if o.Shards < 1 {
		o.Shards = 3
	}
	if o.VNodes < 1 {
		o.VNodes = DefaultVNodes
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// localShard is one in-process replica and its lifecycle handles.
type localShard struct {
	id   string
	addr string // concrete listen address, stable across restarts

	mu     sync.Mutex
	srv    *serve.Server
	cancel context.CancelFunc
	done   chan error
	agent  *Agent
	// gossipStop tears down the shard's agent;
	// killed shards must stop gossiping (a dead process can't defend
	// itself — that's the point of the protocol).
	gossipStop context.CancelFunc
}

// gossipHandler serves /v1/gossip behind the shard's regular middleware
// chain. The agent is created only after the listener binds (it advertises
// the concrete address), so the route resolves it late.
func (sh *localShard) gossipHandler(w http.ResponseWriter, r *http.Request) {
	sh.mu.Lock()
	a := sh.agent
	sh.mu.Unlock()
	if a == nil {
		http.Error(w, `{"error":"gossip agent not up"}`, http.StatusServiceUnavailable)
		return
	}
	a.Handler()(w, r)
}

// LocalCluster is an in-process N-shard + router topology over one shared
// scenario world: every shard serves the same template/store/local model
// (exactly as N processes booted from the same scenario seed would), the
// router fronts them on a loopback port. It backs the cluster tests and the
// benchmark's router_mixed workload.
type LocalCluster struct {
	opts     LocalOptions
	template *core.Problem
	store    *core.EnvironmentStore
	local    *alloc.LocalModel

	router       *Router
	routerAddr   string
	routerAgent  *Agent
	routerCancel context.CancelFunc
	routerDone   chan error

	mu       sync.Mutex // guards shards/wrapped mutation (AddShard)
	shards   []*localShard
	wrapped  []Shard // what the router dials (possibly proxied)
	closers  []func()
	closeOne sync.Once
}

// StartLocal boots the topology: every shard live and gossiping, the
// router probing and gossiping. Every member's agent is seeded with the
// same full member list, so all views agree at t=0; each shard's
// membership manager assigns its identity from that view before StartLocal
// returns.
func StartLocal(template *core.Problem, store *core.EnvironmentStore, local *alloc.LocalModel, opts LocalOptions) (*LocalCluster, error) {
	opts = opts.withDefaults()
	lc := &LocalCluster{opts: opts, template: template, store: store, local: local}

	for i := 0; i < opts.Shards; i++ {
		sh := &localShard{id: "s" + strconv.Itoa(i)}
		if err := lc.bootShard(sh, ""); err != nil {
			lc.Close()
			return nil, err
		}
		lc.shards = append(lc.shards, sh)
	}
	// Gossip plane: every shard's agent boots seeded with the full member
	// list (the in-process equivalent of a join). Identities come from the
	// full member ring.
	seed := lc.memberList()
	for _, sh := range lc.shards {
		if err := lc.startShardGossip(sh, seed, nil); err != nil {
			lc.Close()
			return nil, err
		}
	}

	// Interpose on the router→shard links if asked.
	for _, sh := range lc.shards {
		routeAddr := sh.addr
		if opts.WrapShardAddr != nil {
			wrapped, closer, err := opts.WrapShardAddr(sh.id, sh.addr)
			if err != nil {
				lc.Close()
				return nil, err
			}
			routeAddr = wrapped
			lc.closers = append(lc.closers, closer)
		}
		lc.wrapped = append(lc.wrapped, Shard{ID: sh.id, Addr: routeAddr})
	}

	rcfg := opts.Router
	rcfg.VNodes = opts.VNodes
	if rcfg.Logf == nil {
		rcfg.Logf = opts.Logf
	}
	router, err := NewRouter(store, lc.wrapped, rcfg)
	if err != nil {
		lc.Close()
		return nil, err
	}
	lc.router = router

	// The router binds before serving so its gossip agent can advertise a
	// concrete address; it participates as a router-role member (an extra
	// disseminator and prober, never a ring owner).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lc.Close()
		return nil, fmt.Errorf("cluster: router: %w", err)
	}
	lc.routerAddr = ln.Addr().String()
	agent, err := NewAgent(Member{ID: "router", Addr: lc.routerAddr, Role: RoleRouter}, lc.gossipConfig("router"))
	if err != nil {
		ln.Close()
		lc.Close()
		return nil, err
	}
	agent.Seed(seed)
	lc.routerAgent = agent
	router.AttachMembership(agent)
	ctx, cancel := context.WithCancel(context.Background())
	lc.routerCancel = cancel
	lc.routerDone = make(chan error, 1)
	go func() {
		lc.routerDone <- ServeRouter(ctx, ln, router)
	}()
	opts.Logf("cluster: %d shards + router on %s\n", opts.Shards, lc.routerAddr)
	return lc, nil
}

// bootShard builds a fresh server for sh and serves it. addr "" binds an
// ephemeral port (first boot); otherwise the shard rebinds its old address.
func (lc *LocalCluster) bootShard(sh *localShard, addr string) error {
	srv, err := serve.NewServer(lc.template, lc.store, lc.local, lc.opts.Serve)
	if err != nil {
		return err
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	// Mount /v1/gossip behind the shard's regular middleware. Each shard
	// gets its own route table: the handler closes over this shard.
	httpOpts := lc.opts.HTTP
	extra := make(map[string]http.HandlerFunc, len(httpOpts.ExtraRoutes)+1)
	for p, h := range httpOpts.ExtraRoutes {
		extra[p] = h
	}
	extra[GossipPath] = sh.gossipHandler
	httpOpts.ExtraRoutes = extra
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	ready := make(chan string, 1)
	go func() {
		done <- serve.ListenAndServe(ctx, addr, srv, httpOpts, func(a net.Addr) { ready <- a.String() })
	}()
	select {
	case a := <-ready:
		sh.mu.Lock()
		sh.srv, sh.cancel, sh.done = srv, cancel, done
		if sh.addr == "" {
			sh.addr = a
		}
		sh.mu.Unlock()
		return nil
	case err := <-done:
		cancel()
		return fmt.Errorf("cluster: shard %s: %w", sh.id, err)
	}
}

// memberList renders the current shard set as gossip members (all alive —
// bootstrap seeds assert liveness optimistically; the protocol corrects).
func (lc *LocalCluster) memberList() []Member {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	out := make([]Member, 0, len(lc.shards))
	for _, sh := range lc.shards {
		out = append(out, Member{ID: sh.id, Addr: sh.addr, Role: RoleShard, State: StateAlive})
	}
	return out
}

// liveGossipAddrs is the set of gossip endpoints a (re)joining member can
// dial: every live shard plus the router's agent.
func (lc *LocalCluster) liveGossipAddrs(exclude string) []string {
	lc.mu.Lock()
	shards := append([]*localShard(nil), lc.shards...)
	lc.mu.Unlock()
	var out []string
	for _, sh := range shards {
		if sh.id == exclude {
			continue
		}
		sh.mu.Lock()
		up := sh.srv != nil && sh.agent != nil
		sh.mu.Unlock()
		if up {
			out = append(out, sh.addr)
		}
	}
	return append(out, lc.routerAddr)
}

// gossipConfig derives one member's agent config: shared timings, a
// member-distinct deterministic seed, and the chaos transport wrapper.
func (lc *LocalCluster) gossipConfig(selfID string) GossipConfig {
	g := lc.opts.Gossip.withDefaults()
	cfg := GossipConfig{
		Interval:         g.Interval,
		ProbeTimeout:     g.ProbeTimeout,
		SuspicionTimeout: g.SuspicionTimeout,
		IndirectPeers:    g.IndirectPeers,
		Seed:             g.Seed ^ int64(fnv1a64(selfID)&0x7fffffffffffffff),
		Logf:             lc.opts.Logf,
	}
	if g.WrapTransport != nil {
		cfg.Transport = g.WrapTransport(selfID, HTTPTransport{})
	}
	return cfg
}

// startShardGossip boots sh's agent (joining via joinAddrs and/or seeded
// with the topology's member list) and its membership manager.
func (lc *LocalCluster) startShardGossip(sh *localShard, seed []Member, joinAddrs []string) error {
	agent, err := NewAgent(Member{ID: sh.id, Addr: sh.addr, Role: RoleShard}, lc.gossipConfig(sh.id))
	if err != nil {
		return err
	}
	if len(joinAddrs) > 0 {
		if err := agent.Join(joinAddrs); err != nil {
			// Fail soft when we also have a seed list (anti-entropy will
			// re-converge us); a flag-free join has nothing else to go on.
			if len(seed) == 0 {
				return fmt.Errorf("cluster: gossip: %s join: %w", sh.id, err)
			}
			lc.opts.Logf("cluster: gossip: %s join failed (%v), falling back to the seed list\n", sh.id, err)
		}
	}
	if len(seed) > 0 {
		agent.Seed(seed)
	}
	if len(joinAddrs) > 0 {
		// Rejoin bump: assert liveness above any suspicion the fleet may
		// hold from before the restart, even one the join seed hasn't heard
		// of yet. A suspect at our old incarnation could otherwise outrank
		// our equal-incarnation alive (stronger state wins at equal inc).
		agent.ForceAlive()
	}
	sh.mu.Lock()
	srv := sh.srv
	sh.mu.Unlock()
	if srv == nil {
		return fmt.Errorf("cluster: gossip: %s not serving", sh.id)
	}
	ManageMembership(srv, agent, Shard{ID: sh.id, Addr: sh.addr}, lc.opts.VNodes, lc.opts.Logf)
	ctx, cancel := context.WithCancel(context.Background())
	sh.mu.Lock()
	sh.agent, sh.gossipStop = agent, cancel
	sh.mu.Unlock()
	go agent.Run(ctx)
	return nil
}

// awaitRouterSeesAlive blocks until the router's membership view holds id
// alive at incarnation >= minInc and the ring mask is lifted (or the
// timeout passes). Once the router has applied that record, no stale
// lower-incarnation obituary can re-mask the shard — precedence rejects it
// — so tests observing LiveShards after this are deterministic.
func (lc *LocalCluster) awaitRouterSeesAlive(id string, minInc uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if m, ok := lc.routerAgent.View().Find(id); ok && m.State == StateAlive && m.Incarnation >= minInc {
			lc.router.mu.RLock()
			ss := lc.router.shards[id]
			lc.router.mu.RUnlock()
			if ss != nil && !ss.gossipDead.Load() {
				return true
			}
		}
		if time.Now().After(deadline) {
			lc.opts.Logf("cluster: gossip: router did not re-admit %s within %v\n", id, timeout)
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Addr is the router's listen address.
func (lc *LocalCluster) Addr() string { return lc.routerAddr }

// Router exposes the routing tier (stats, ProbeOnce for tests).
func (lc *LocalCluster) Router() *Router { return lc.router }

// Shards is the replica count.
func (lc *LocalCluster) Shards() int { return len(lc.shards) }

// ShardAddr is shard i's real (unwrapped) address.
func (lc *LocalCluster) ShardAddr(i int) string { return lc.shards[i].addr }

// ShardID is shard i's ring id.
func (lc *LocalCluster) ShardID(i int) string { return lc.shards[i].id }

// Server is shard i's live server, or nil while killed.
func (lc *LocalCluster) Server(i int) *serve.Server {
	sh := lc.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.srv
}

// KillShard stops shard i's server (graceful drain, listener closed).
// Requests owned by its ranges fail over to survivors on the router's next
// ejection — by I/O error, drain 503, or missed probes, whichever fires
// first.
func (lc *LocalCluster) KillShard(i int) error {
	sh := lc.shards[i]
	sh.mu.Lock()
	cancel, done := sh.cancel, sh.done
	gstop := sh.gossipStop
	sh.srv, sh.cancel, sh.done = nil, nil, nil
	sh.agent, sh.gossipStop = nil, nil
	sh.mu.Unlock()
	if cancel == nil {
		return fmt.Errorf("cluster: shard %d already down", i)
	}
	if gstop != nil {
		// A killed process stops gossiping — the survivors must detect the
		// death, not be told about it.
		gstop()
	}
	cancel()
	err := <-done
	lc.opts.Logf("cluster: shard %s killed\n", sh.id)
	return err
}

// RestartShard boots shard i back on its original address with a fresh
// server and rejoins it to the gossip plane; its membership manager's first
// view assigns its identity. Returns once the router's view holds the shard
// alive again.
func (lc *LocalCluster) RestartShard(i int) error {
	sh := lc.shards[i]
	sh.mu.Lock()
	down := sh.cancel == nil
	sh.mu.Unlock()
	if !down {
		return fmt.Errorf("cluster: shard %d still running", i)
	}
	if err := lc.bootShard(sh, sh.addr); err != nil {
		return err
	}
	// Rejoin the gossip plane through any live peer: the join sync surfaces
	// our obituary (if one converged while we were down), the rejoin bump
	// refutes it at a higher incarnation, and the router re-admission wait
	// below makes the ring state deterministic for callers that assert
	// LiveShards right after this returns. Identity comes from the full
	// member list: ownership never depends on who happens to be up.
	if err := lc.startShardGossip(sh, lc.memberList(), lc.liveGossipAddrs(sh.id)); err != nil {
		return err
	}
	sh.mu.Lock()
	agent := sh.agent
	sh.mu.Unlock()
	lc.awaitRouterSeesAlive(sh.id, agent.Incarnation(), 5*time.Second)
	lc.opts.Logf("cluster: shard %s restarted\n", sh.id)
	return nil
}

// AddShard boots a brand-new shard and joins it to the fleet through the
// gossip plane alone — no flag change, no static list edit anywhere. The
// newcomer dials one live peer, learns the full member table from the join
// sync, and the rest of the fleet (router included) re-shapes around it as
// the join disseminates. Returns the new shard's index.
func (lc *LocalCluster) AddShard() (int, error) {
	lc.mu.Lock()
	i := len(lc.shards)
	lc.mu.Unlock()
	sh := &localShard{id: "s" + strconv.Itoa(i)}
	if err := lc.bootShard(sh, ""); err != nil {
		return 0, err
	}
	if err := lc.startShardGossip(sh, nil, lc.liveGossipAddrs(sh.id)); err != nil {
		sh.mu.Lock()
		cancel, done := sh.cancel, sh.done
		sh.mu.Unlock()
		if cancel != nil {
			cancel()
			<-done
		}
		return 0, err
	}
	lc.mu.Lock()
	lc.shards = append(lc.shards, sh)
	lc.wrapped = append(lc.wrapped, Shard{ID: sh.id, Addr: sh.addr})
	lc.mu.Unlock()
	lc.awaitRouterSeesAlive(sh.id, 0, 5*time.Second)
	lc.opts.Logf("cluster: shard %s joined via gossip\n", sh.id)
	return i, nil
}

// ShardAgent is shard i's gossip agent, or nil while killed.
func (lc *LocalCluster) ShardAgent(i int) *Agent {
	sh := lc.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.agent
}

// RouterAgent is the routing tier's gossip agent.
func (lc *LocalCluster) RouterAgent() *Agent { return lc.routerAgent }

// LiveAgents snapshots every running gossip agent: live shards plus the
// router.
func (lc *LocalCluster) LiveAgents() []*Agent {
	lc.mu.Lock()
	shards := append([]*localShard(nil), lc.shards...)
	lc.mu.Unlock()
	var out []*Agent
	for _, sh := range shards {
		sh.mu.Lock()
		if sh.agent != nil {
			out = append(out, sh.agent)
		}
		sh.mu.Unlock()
	}
	return append(out, lc.routerAgent)
}

// AwaitConverged polls until every live agent's view satisfies cond (nil
// accepts any) AND all views agree on (epoch, digest) — the membership
// plane's definition of converged. Returns how long convergence took.
func (lc *LocalCluster) AwaitConverged(timeout time.Duration, cond func(View) bool) (time.Duration, bool) {
	start := time.Now()
	deadline := start.Add(timeout)
	for {
		agents := lc.LiveAgents()
		views := make([]View, 0, len(agents))
		ok := len(agents) > 0
		for _, a := range agents {
			v := a.View()
			if cond != nil && !cond(v) {
				ok = false
				break
			}
			views = append(views, v)
		}
		if ok && ViewsConverged(views) {
			return time.Since(start), true
		}
		if time.Now().After(deadline) {
			return time.Since(start), false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close tears the whole topology down: router first (so nothing routes into
// dying shards), then every live shard, then the wrappers.
func (lc *LocalCluster) Close() {
	lc.closeOne.Do(func() {
		if lc.routerCancel != nil {
			lc.routerCancel()
			<-lc.routerDone
		}
		for i := range lc.shards {
			sh := lc.shards[i]
			sh.mu.Lock()
			cancel, done := sh.cancel, sh.done
			gstop := sh.gossipStop
			sh.srv, sh.cancel, sh.done = nil, nil, nil
			sh.agent, sh.gossipStop = nil, nil
			sh.mu.Unlock()
			if gstop != nil {
				gstop()
			}
			if cancel != nil {
				cancel()
				<-done
			}
		}
		for _, c := range lc.closers {
			c()
		}
	})
}
