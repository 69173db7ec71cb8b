// Command dcta-server runs the online allocation service: an HTTP/JSON
// front-end over internal/serve, deployed on the experimental world
// dcta.ScaledScenarioConfig builds for -scale (the world dcta-bench prints
// figures from).
//
//	dcta-server -addr :8080 -scale fast
//	dcta-server -addr 127.0.0.1:8080 -node-id s0   # first shard of a fleet
//	dcta-server -addr 127.0.0.1:8081 -node-id s1 -join 127.0.0.1:8080
//
// A shard's cluster membership comes from the gossip plane alone: it
// joins through any live member. Which clusters it answers is the
// router's to decide: the router's GET /v1/cluster reports the ring.
//
// Endpoints: POST /v1/allocate, POST /v1/feedback, GET /v1/stats,
// GET /healthz. SIGINT/SIGTERM drains gracefully: /healthz
// flips to 503 so load balancers stop routing, allocates still answer (the
// same decision, labelled degraded), and in-flight requests get
// -drain-timeout to finish.
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
		seed         = flag.Int64("seed", 1, "scenario and local-model seed")
		neighborhood = flag.Int("neighborhood", 5, "stored environments per cluster sub-store")
		refitEvery   = flag.Int("refit-every", 256, "feedback samples between local-model refits")
		reqTimeout   = flag.Duration("request-timeout", 120*time.Second, "per-request deadline")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight requests")
		nodeID       = flag.String("node-id", "", "cluster shard id: gossips on this node's listener and joins the fleet through -join (empty runs standalone)")
		joinSeeds    = flag.String("join", "", "gossip seed peers (host:port,host:port,...): join the fleet through any live member (needs -node-id; the fleet's first shard names none)")
		advertise    = flag.String("advertise", "", "address peers dial this shard at (default: -addr when it names a host)")
		gossipEvery  = flag.Duration("gossip-interval", time.Second, "gossip protocol tick interval")
		suspectAfter = flag.Duration("suspicion-timeout", 0, "how long a suspected member may stay unrefuted before it is declared dead (0 = derived from interval and fleet size)")
	)
	flag.Parse()
	cfg := serve.DefaultConfig()
	cfg.ClusterNeighborhood = *neighborhood
	cfg.RefitEvery = *refitEvery
	cfg.Seed = *seed
	join := joinOptions{
		NodeID:       *nodeID,
		JoinSeeds:    *joinSeeds,
		Advertise:    *advertise,
		GossipEvery:  *gossipEvery,
		SuspectAfter: *suspectAfter,
	}
	if err := run(*addr, *scale, *seed, cfg,
		serve.HTTPOptions{RequestTimeout: *reqTimeout, DrainTimeout: *drainTimeout}, join); err != nil {
		fmt.Fprintln(os.Stderr, "dcta-server:", err)
		os.Exit(1)
	}
}

// joinOptions is the cluster-membership flag bundle.
type joinOptions struct {
	NodeID       string
	JoinSeeds    string
	Advertise    string
	GossipEvery  time.Duration
	SuspectAfter time.Duration
}

// startGossip boots the shard's SWIM membership agent and joins it to the
// fleet through the -join seeds; the fleet's first shard names none and
// starts as a one-member view that joiners gossip into. The agent's route
// is mounted on the shard's listener and its view joins the shard's stats.
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
	s.SetMembership(agent.MembershipStats)
	go agent.Run(ctx)
	log.Printf("gossip membership up as %s@%s: %d members known, epoch %d",
		j.NodeID, adv, len(agent.View().Members), agent.Epoch())
	return nil
}

func run(addr, scale string, seed int64, cfg serve.Config, opts serve.HTTPOptions, join joinOptions) error {
	scnCfg, err := dcta.ScaledScenarioConfig(seed, scale)
	if err != nil {
		return err
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
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := startGossip(ctx, s, addr, join, &opts); err != nil {
		return err
	}
	err = serve.ListenAndServe(ctx, addr, s, opts, func(a net.Addr) {
		log.Printf("serving on %s (store=%d clusters, neighbourhood=%d, refit every %d samples)",
			a, scn.Store.Len(), cfg.ClusterNeighborhood, cfg.RefitEvery)
	})
	if err != nil {
		return err
	}
	st := s.Stats()
	log.Printf("drained; final stats: %d allocates (%d DCTA, %d degraded), %d feedbacks, %d refits",
		st.Allocates, st.DCTABypass, st.DegradedCount, st.Feedbacks, st.Refits)
	return nil
}
