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
	// Serve configures every shard's server.
	Serve serve.Config
	// Router configures the routing tier.
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
// same full member list, so all views agree at t=0.
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
	// list (the in-process equivalent of a join).
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
	httpOpts := serve.HTTPOptions{ExtraRoutes: map[string]http.HandlerFunc{GossipPath: sh.gossipHandler}}
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
// with the topology's member list) and joins its stats to the server's.
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
	srv.SetMembership(agent.MembershipStats)
	ctx, cancel := context.WithCancel(context.Background())
	sh.mu.Lock()
	sh.agent, sh.gossipStop = agent, cancel
	sh.mu.Unlock()
	go agent.Run(ctx)
	return nil
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
