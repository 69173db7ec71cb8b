// Command dcta-server runs the online allocation service: an HTTP/JSON
// front-end over the per-cluster policy cache in internal/serve, deployed on
// the same experimental world as dcta-bench.
//
//	dcta-server -addr :8080 -scale fast
//	dcta-server -checkpoint policies.ckpt      # warm-start across restarts
//	dcta-server -checkpoint policies.ckpt -checkpoint-every 5m
//
// Endpoints: POST /v1/allocate, POST /v1/feedback, GET /v1/stats,
// GET /healthz. SIGINT/SIGTERM drains gracefully: /healthz flips to 503 so
// load balancers stop routing, allocates answer through the degraded
// fallback path, in-flight requests get -drain-timeout to finish, and the
// policy cache is checkpointed on the way out when -checkpoint is set.
//
// Failure handling: trainings that fail, hang past -train-budget, or trip a
// cluster's circuit breaker (-breaker-threshold / -breaker-backoff) degrade
// to the greedy fallback allocator instead of erroring; -train-concurrency
// bounds simultaneous trainings (default one per P) so a cold burst cannot
// fork-bomb the box, and a value below GOMAXPROCS reserves CPUs for warm
// answers while a burst trains.
// With -checkpoint-every set, the cache is checkpointed periodically
// (atomic temp-file+rename writes), so a crash loses at most one interval.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		scale        = flag.String("scale", "fast", "scenario scale: fast, default, full")
		seed         = flag.Int64("seed", 1, "scenario and policy seed")
		checkpoint   = flag.String("checkpoint", "", "policy-cache checkpoint file: loaded on start when present, saved on shutdown")
		ckptEvery    = flag.Duration("checkpoint-every", 0, "also checkpoint periodically at this interval (0 = only on shutdown; needs -checkpoint)")
		neighborhood = flag.Int("neighborhood", 5, "stored environments per cluster training sub-store")
		capacity     = flag.Int("cache-capacity", 64, "max resident cluster policies (LRU beyond)")
		ttl          = flag.Duration("policy-ttl", 0, "retrain policies older than this (0 = never)")
		drift        = flag.Float64("drift-threshold", 0.35, "relative importance drift that invalidates a policy (<0 disables)")
		refitEvery   = flag.Int("refit-every", 256, "feedback samples between local-model refits")
		reqTimeout   = flag.Duration("request-timeout", 120*time.Second, "per-request deadline (cold paths train)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight requests")
		episodes     = flag.Int("crl-episodes", 0, "per-cluster CRL training episodes (0 = scale default)")
		trainBudget  = flag.Duration("train-budget", 0, "max wait for a policy training before answering degraded (0 = wait out the request deadline)")
		brkThresh    = flag.Int("breaker-threshold", 3, "consecutive training failures that open a cluster's circuit breaker (<0 disables)")
		brkBackoff   = flag.Duration("breaker-backoff", time.Second, "first breaker open window (doubles per reopen, jittered)")
		trainConc    = flag.Int("train-concurrency", 0, "max concurrent policy trainings (0 = GOMAXPROCS; set lower to keep CPUs free for warm answers during a cold burst)")
		noWarmStart  = flag.Bool("no-warm-start", false, "disable neighbour warm-start: cold clusters always train from scratch")
		warmFrac     = flag.Float64("warm-episode-frac", 0, "episode-budget fraction for warm-started trainings (0 = default 1/4)")
		speculate    = flag.Int("speculate", 0, "pre-train up to N predicted-next clusters per demand training on idle gate capacity (0 disables)")
		prioritized  = flag.Bool("prioritized-replay", false, "TD-error-prioritized experience replay (α=0.6) in policy trainings")
		nodeID       = flag.String("node-id", "", "cluster shard id (joins the -cluster fleet; empty runs standalone)")
		clusterSpec  = flag.String("cluster", "", "full shard list incl. this node: id=host:port,id=host:port,... (needs -node-id)")
		vnodes       = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per shard on the cluster ring")
		joinPull     = flag.Bool("join-pull", true, "on cluster join, pull this shard's owned policy checkpoints from its peers")
		handoffTO    = flag.Duration("handoff-timeout", cluster.DefaultHandoffTimeout, "per-peer deadline for join-time checkpoint pulls")
		replicaGrps  = flag.Int("replica-groups", cluster.DefaultReplicaGroups, "owners per cluster range (R): primary plus R-1 successor replicas with async policy replication (1 disables)")
		joinSeeds    = flag.String("join", "", "gossip seed peers (host:port,host:port,...): join the fleet flag-free through any live member — no -cluster list needed")
		advertise    = flag.String("advertise", "", "address peers dial this shard at (default: this node's entry in -cluster, or -addr when it names a host)")
		gossipEvery  = flag.Duration("gossip-interval", time.Second, "gossip protocol tick interval")
		suspectAfter = flag.Duration("suspicion-timeout", 0, "how long a suspected member may stay unrefuted before it is declared dead (0 = derived from interval and fleet size)")
	)
	flag.Parse()
	cfg := serveConfig(
		*neighborhood, *capacity, *ttl, *drift, *refitEvery, *seed, *episodes,
	)
	cfg.TrainBudget = *trainBudget
	cfg.BreakerThreshold = *brkThresh
	cfg.BreakerBackoff = *brkBackoff
	cfg.TrainConcurrency = *trainConc
	cfg.DisableWarmStart = *noWarmStart
	cfg.WarmEpisodeFrac = *warmFrac
	cfg.SpeculateNeighbors = *speculate
	if *prioritized {
		cfg.CRL.DQN.PrioritizedReplay = true
		cfg.CRL.DQN.PriorityAlpha = 0.6
	}
	join := joinOptions{
		NodeID:       *nodeID,
		Cluster:      *clusterSpec,
		VNodes:       *vnodes,
		Pull:         *joinPull,
		Timeout:      *handoffTO,
		Replicas:     *replicaGrps,
		JoinSeeds:    *joinSeeds,
		Advertise:    *advertise,
		GossipEvery:  *gossipEvery,
		SuspectAfter: *suspectAfter,
	}
	if err := run(*addr, *scale, *seed, *checkpoint, *ckptEvery, cfg,
		serve.HTTPOptions{RequestTimeout: *reqTimeout, DrainTimeout: *drainTimeout}, join); err != nil {
		fmt.Fprintln(os.Stderr, "dcta-server:", err)
		os.Exit(1)
	}
}

// joinOptions is the cluster-membership flag bundle.
type joinOptions struct {
	NodeID       string
	Cluster      string
	VNodes       int
	Pull         bool
	Timeout      time.Duration
	Replicas     int
	JoinSeeds    string
	Advertise    string
	GossipEvery  time.Duration
	SuspectAfter time.Duration
}

// joinCluster wires the shard into its fleet: identity from the full ring
// (recorded in /v1/stats and /v1/cluster), then — unless -join-pull=false —
// a warm boot pulling this shard's owned checkpoint sections from its
// peers, and with -replica-groups >= 2 the async replication queue that
// pushes freshly trained policies to the range's other owners. An
// unreachable peer just leaves those clusters cold.
func joinCluster(s *serve.Server, j joinOptions) error {
	if j.NodeID == "" {
		return nil
	}
	if j.Cluster == "" {
		// Flag-free fleet: no static list anywhere — identity, warm pulls and
		// replication all come from the gossip plane (startGossip). This
		// includes the lone seed node (-node-id with neither -cluster nor
		// -join), whose first view is just itself and owns the whole ring
		// until joiners gossip in.
		return nil
	}
	all, err := cluster.ParseShards(j.Cluster)
	if err != nil {
		return fmt.Errorf("cluster join: %w", err)
	}
	var self cluster.Shard
	found := false
	for _, sh := range all {
		if sh.ID == j.NodeID {
			self, found = sh, true
			break
		}
	}
	if !found {
		return fmt.Errorf("cluster join: -node-id %q not in -cluster list", j.NodeID)
	}
	pulled := 0
	if j.Pull {
		pulled, err = cluster.JoinWarm(s, self, all, j.VNodes, j.Replicas, j.Timeout, log.Printf)
	} else {
		_, _, err = cluster.AssignIdentity(s, self, all, j.VNodes, j.Replicas)
	}
	if err != nil {
		return fmt.Errorf("cluster join: %w", err)
	}
	if err := cluster.EnableShardReplication(s, self, all, j.VNodes, j.Replicas, log.Printf); err != nil {
		return fmt.Errorf("cluster join: %w", err)
	}
	id := s.ClusterIdentity()
	log.Printf("joined cluster as %s: %d owned + %d replica clusters (%.1f%% of the ring, R=%d), %d policies pulled warm",
		j.NodeID, len(id.OwnedClusters), len(id.ReplicaClusters), id.OwnedFraction*100, j.Replicas, pulled)
	return nil
}

// startGossip boots the shard's SWIM membership agent: seeded from the
// static -cluster list when one is given, joined through -join seeds when
// not (or both — the wire always supersedes the bootstrap list). The
// returned route must be mounted on the shard's listener, and the
// membership manager keeps identity, replication targets and warm state in
// lockstep with the converged view from here on.
func startGossip(ctx context.Context, s *serve.Server, j joinOptions, httpOpts *serve.HTTPOptions) error {
	if j.NodeID == "" {
		return nil
	}
	var static []cluster.Shard
	if j.Cluster != "" {
		var err error
		if static, err = cluster.ParseShards(j.Cluster); err != nil {
			return fmt.Errorf("gossip: %w", err)
		}
	}
	adv := j.Advertise
	if adv == "" {
		for _, sh := range static {
			if sh.ID == j.NodeID {
				adv = sh.Addr
			}
		}
	}
	if adv == "" {
		return fmt.Errorf("gossip: -advertise required (peers must be able to dial this shard back)")
	}
	agent, err := cluster.NewAgent(
		cluster.Member{ID: j.NodeID, Addr: adv, Role: cluster.RoleShard},
		cluster.GossipConfig{
			Interval:         j.GossipEvery,
			SuspicionTimeout: j.SuspectAfter,
			Logf:             log.Printf,
		})
	if err != nil {
		return fmt.Errorf("gossip: %w", err)
	}
	if len(static) > 0 {
		members := make([]cluster.Member, 0, len(static))
		for _, sh := range static {
			members = append(members, cluster.Member{ID: sh.ID, Addr: sh.Addr, Role: cluster.RoleShard})
		}
		agent.Seed(members)
	}
	if j.JoinSeeds != "" {
		seeds, err := cluster.ParseSeeds(j.JoinSeeds)
		if err != nil {
			return fmt.Errorf("gossip: %w", err)
		}
		if err := agent.JoinRetry(seeds, cluster.DefaultJoinRetryWindow, log.Printf); err != nil {
			if len(static) == 0 {
				return fmt.Errorf("gossip: %w", err)
			}
			log.Printf("gossip: join failed (%v); continuing on the static -cluster seed", err)
		}
		// Rejoin bump: outrank any suspicion the fleet may still hold about
		// a previous life of this shard id.
		agent.ForceAlive()
	}
	if httpOpts.ExtraRoutes == nil {
		httpOpts.ExtraRoutes = map[string]http.HandlerFunc{}
	}
	httpOpts.ExtraRoutes[cluster.GossipPath] = agent.Handler()
	_, pulled, err := cluster.ManageMembership(ctx, s, agent,
		cluster.Shard{ID: j.NodeID, Addr: adv}, j.VNodes, j.Replicas, 0, j.Timeout, log.Printf)
	if err != nil {
		return fmt.Errorf("gossip: %w", err)
	}
	go agent.Run(ctx)
	id := s.ClusterIdentity()
	log.Printf("gossip membership up as %s@%s: %d members known, epoch %d, %d owned + %d replica clusters, %d policies pulled warm",
		j.NodeID, adv, len(agent.View().Members), agent.Epoch(), len(id.OwnedClusters), len(id.ReplicaClusters), pulled)
	return nil
}

func serveConfig(neighborhood, capacity int, ttl time.Duration, drift float64,
	refitEvery int, seed int64, episodes int) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.ClusterNeighborhood = neighborhood
	cfg.CacheCapacity = capacity
	cfg.PolicyTTL = ttl
	cfg.DriftThreshold = drift
	cfg.RefitEvery = refitEvery
	cfg.Seed = seed
	cfg.CRL.Episodes = episodes
	return cfg
}

// scenarioConfig mirrors dcta-bench's -scale presets.
func scenarioConfig(seed int64, scale string) (dcta.ScenarioConfig, error) {
	cfg := dcta.DefaultScenarioConfig(seed)
	switch scale {
	case "fast":
		cfg.Years = 1
		cfg.Tasks = 24
		cfg.HistoryContexts = 20
		cfg.EvalContexts = 4
		cfg.Workers = 5
		cfg.CRLEpisodes = 10
	case "default":
	case "full":
		cfg.Years = 4
		cfg.StepHours = 1
		cfg.HistoryContexts = 120
		cfg.EvalContexts = 24
		cfg.CRLEpisodes = 150
	default:
		return cfg, fmt.Errorf("unknown scale %q (fast, default, full)", scale)
	}
	return cfg, nil
}

func run(addr, scale string, seed int64, checkpoint string, ckptEvery time.Duration,
	cfg serve.Config, opts serve.HTTPOptions, join joinOptions) error {
	scnCfg, err := scenarioConfig(seed, scale)
	if err != nil {
		return err
	}
	if cfg.CRL.Episodes < 1 {
		cfg.CRL.Episodes = scnCfg.CRLEpisodes
	}
	log.Printf("building scenario (seed=%d scale=%s: %d tasks, %d workers, %d stored environments)...",
		seed, scale, scnCfg.Tasks, scnCfg.Workers, scnCfg.HistoryContexts)
	scn, err := dcta.NewScenario(scnCfg)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	s, err := serve.NewServer(scn.Template, scn.Store, scn.Local, cfg)
	if err != nil {
		return err
	}
	if checkpoint != "" {
		n, err := s.LoadCheckpointFile(checkpoint)
		if err != nil {
			return fmt.Errorf("checkpoint load: %w", err)
		}
		if n > 0 {
			log.Printf("warm-started %d cluster policies from %s", n, checkpoint)
		} else {
			log.Printf("no policies restored from %s; starting cold", checkpoint)
		}
	}

	if err := joinCluster(s, join); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := startGossip(ctx, s, join, &opts); err != nil {
		return err
	}
	if checkpoint != "" && ckptEvery > 0 {
		go periodicCheckpoint(ctx, s, checkpoint, ckptEvery)
	}
	err = serve.ListenAndServe(ctx, addr, s, opts, func(a net.Addr) {
		log.Printf("serving on %s (store=%d clusters, cache=%d, ttl=%v, drift=%.2f, breaker=%d@%v, train-budget=%v)",
			a, scn.Store.Len(), cfg.CacheCapacity, cfg.PolicyTTL, cfg.DriftThreshold,
			cfg.BreakerThreshold, cfg.BreakerBackoff, cfg.TrainBudget)
	})
	if err != nil {
		return err
	}
	log.Printf("drained; final stats: %+v", s.Stats().Cache)
	if checkpoint != "" {
		if err := s.SaveCheckpointFile(checkpoint); err != nil {
			return fmt.Errorf("checkpoint save: %w", err)
		}
		log.Printf("checkpointed policy cache to %s", checkpoint)
	}
	return nil
}

// periodicCheckpoint writes the cache to disk every interval until ctx ends.
// Each tick runs panic-safe: a checkpointing bug degrades durability (logged)
// but never takes the serving process down with it.
func periodicCheckpoint(ctx context.Context, s *serve.Server, path string, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			checkpointTick(s, path)
		}
	}
}

func checkpointTick(s *serve.Server, path string) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("periodic checkpoint panicked (serving continues): %v\n%s", p, debug.Stack())
		}
	}()
	if err := s.SaveCheckpointFile(path); err != nil {
		log.Printf("periodic checkpoint: %v", err)
		return
	}
	log.Printf("periodic checkpoint written to %s", path)
}
