// Command dcta-server runs the online allocation service: an HTTP/JSON
// front-end over the per-cluster policy cache in internal/serve, deployed on
// the experimental world dcta.ScaledScenarioConfig builds for -scale (the
// world dcta-bench prints figures from).
//
//	dcta-server -addr :8080 -scale fast
//	dcta-server -checkpoint policies.ckpt      # warm-start across restarts
//	dcta-server -checkpoint policies.ckpt -checkpoint-every 5m
//	dcta-server -addr 127.0.0.1:8080 -node-id s0   # first shard of a fleet
//	dcta-server -addr 127.0.0.1:8081 -node-id s1 -join 127.0.0.1:8080
//
// A shard's cluster membership comes from the gossip plane alone: it
// joins through any live member, and the converged view sets its ring
// identity, its replication peers and the warm state it pulls.
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
		nodeID       = flag.String("node-id", "", "cluster shard id: gossips on this node's listener and joins the fleet through -join (empty runs standalone)")
		vnodes       = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per shard on the cluster ring")
		handoffTO    = flag.Duration("handoff-timeout", cluster.DefaultHandoffTimeout, "per-peer deadline for warm-state checkpoint pulls")
		replicaGrps  = flag.Int("replica-groups", cluster.DefaultReplicaGroups, "owners per cluster range (R): primary plus R-1 successor replicas with async policy replication (1 disables)")
		joinSeeds    = flag.String("join", "", "gossip seed peers (host:port,host:port,...): join the fleet through any live member (needs -node-id; the fleet's first shard names none)")
		advertise    = flag.String("advertise", "", "address peers dial this shard at (default: -addr when it names a host)")
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
		VNodes:       *vnodes,
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
	VNodes       int
	Timeout      time.Duration
	Replicas     int
	JoinSeeds    string
	Advertise    string
	GossipEvery  time.Duration
	SuspectAfter time.Duration
}

// startGossip boots the shard's SWIM membership agent and joins it to the
// fleet through the -join seeds; the fleet's first shard names none and
// starts as a one-member view that joiners gossip into. The agent's route
// is mounted on the shard's listener, and the membership manager sets the
// shard's identity, replication targets and warm state from the converged
// view from here on.
func startGossip(ctx context.Context, s *serve.Server, addr string, j joinOptions, httpOpts *serve.HTTPOptions) error {
	if j.NodeID == "" {
		if j.JoinSeeds != "" {
			return fmt.Errorf("gossip: -join needs -node-id")
		}
		return nil
	}
	adv, err := cluster.AdvertiseAddr(j.Advertise, addr)
	if err != nil {
		return fmt.Errorf("gossip: %w", err)
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
	if j.JoinSeeds != "" {
		seeds, err := cluster.ParseSeeds(j.JoinSeeds)
		if err != nil {
			return fmt.Errorf("gossip: %w", err)
		}
		if err := agent.JoinRetry(seeds, cluster.DefaultJoinRetryWindow, log.Printf); err != nil {
			return fmt.Errorf("gossip: %w", err)
		}
		// Rejoin bump: outrank any suspicion the fleet may still hold about
		// a previous life of this shard id.
		agent.ForceAlive()
	}
	if httpOpts.ExtraRoutes == nil {
		httpOpts.ExtraRoutes = map[string]http.HandlerFunc{}
	}
	httpOpts.ExtraRoutes[cluster.GossipPath] = agent.Handler()
	pulled, err := cluster.ManageMembership(ctx, s, agent,
		cluster.Shard{ID: j.NodeID, Addr: adv}, j.VNodes, j.Replicas, 0, j.Timeout, log.Printf)
	if err != nil {
		return fmt.Errorf("gossip: %w", err)
	}
	go agent.Run(ctx)
	id := s.ClusterIdentity()
	log.Printf("gossip membership up as %s@%s: %d members known, epoch %d, %d owned + %d replica clusters (%.1f%% of the ring, R=%d), %d policies pulled warm",
		j.NodeID, adv, len(agent.View().Members), agent.Epoch(), len(id.OwnedClusters), len(id.ReplicaClusters),
		id.OwnedFraction*100, j.Replicas, pulled)
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

func run(addr, scale string, seed int64, checkpoint string, ckptEvery time.Duration,
	cfg serve.Config, opts serve.HTTPOptions, join joinOptions) error {
	scnCfg, err := dcta.ScaledScenarioConfig(seed, scale)
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

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := startGossip(ctx, s, addr, join, &opts); err != nil {
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
