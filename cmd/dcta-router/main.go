// Command dcta-router is the cluster front-end for a fleet of dcta-server
// shards: it resolves each request's sensing signature to its cluster key
// (the nearest stored environment's index, which the servers answer for),
// looks the key up on a consistent-hash ring over the shard fleet, and
// proxies the request to the owning shard over persistent connections.
//
//	dcta-router -addr 127.0.0.1:8090 -scale fast -seed 1 -join 127.0.0.1:8080
//
// The router learns the fleet from the gossip plane alone: it joins through
// any live member (-join is required), admits every shard the converged
// view names, and masks the ones it confirms dead. Beside that view it
// keeps two local liveness inputs on its own router→shard links: it probes
// every shard's /healthz, and a request that fails at the wire ejects its
// shard at once. A shard that misses its liveness budget is ejected and
// its ring ranges reassign to the survivors (requests for those ranges are
// answered by a survivor — they never 5xx while any shard lives). A shard
// that comes back is re-admitted on its next healthy probe and its ranges
// return.
//
// Endpoints: POST /v1/allocate and /v1/feedback (proxied), GET /v1/stats
// (fleet aggregate + per-shard counters), GET /v1/cluster (the shard map:
// the one place ring ownership is reported; shards keep no ring of their
// own), GET /healthz.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/cluster"
)

func main() {
	var (
		addr       = flag.String("addr", ":8090", "listen address")
		scale      = flag.String("scale", "fast", "scenario scale: fast, default, full (must match the shards')")
		seed       = flag.Int64("seed", 1, "scenario seed (must match the shards')")
		vnodes     = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per shard on the ring")
		probeEvery = flag.Duration("probe-every", 250*time.Millisecond, "liveness probe cadence")
		misses     = flag.Int("liveness-misses", 3, "consecutive failed probes before a shard is ejected")
		proxyTO    = flag.Duration("proxy-timeout", 30*time.Second, "per-request proxy deadline (a feedback that refits answers after the fit)")
		joinSeeds  = flag.String("join", "", "gossip seed peers (host:port,...), required: the router learns the shard fleet from the membership plane")
		advertise  = flag.String("advertise", "", "address fleet members dial this router's gossip endpoint at (default: -addr when it names a host)")
		gossipTick = flag.Duration("gossip-interval", time.Second, "gossip protocol tick interval")
		suspectTO  = flag.Duration("suspicion-timeout", 0, "unrefuted-suspect window before a member is declared dead (0 = derived)")
	)
	flag.Parse()
	if err := run(*addr, *scale, *seed, *vnodes, *probeEvery, *misses, *proxyTO,
		*joinSeeds, *advertise, *gossipTick, *suspectTO); err != nil {
		fmt.Fprintln(os.Stderr, "dcta-router:", err)
		os.Exit(1)
	}
}

func run(addr, scale string, seed int64, vnodes int,
	probeEvery time.Duration, misses int, proxyTO time.Duration,
	joinSeeds, advertise string, gossipTick, suspectTO time.Duration) error {
	if joinSeeds == "" {
		return fmt.Errorf("-join is required")
	}
	seeds, err := cluster.ParseSeeds(joinSeeds)
	if err != nil {
		return err
	}
	adv, err := cluster.AdvertiseAddr(advertise, addr)
	if err != nil {
		return err
	}
	scnCfg, err := dcta.ScaledScenarioConfig(seed, scale)
	if err != nil {
		return err
	}
	log.Printf("building scenario (seed=%d scale=%s) for signature routing...", seed, scale)
	scn, err := dcta.NewScenario(scnCfg)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	router, err := cluster.NewRouter(scn.Store, nil, cluster.RouterConfig{
		VNodes:         vnodes,
		ProbeEvery:     probeEvery,
		LivenessMisses: misses,
		ProxyTimeout:   proxyTO,
	})
	if err != nil {
		return err
	}
	// The router gossips like any other member (role router — it never owns
	// ring ranges) and builds its ring from the converged view; its private
	// probes stay on as a second, faster liveness input.
	agent, err := cluster.NewAgent(
		cluster.Member{ID: "router", Addr: adv, Role: cluster.RoleRouter},
		cluster.GossipConfig{Interval: gossipTick, SuspicionTimeout: suspectTO, Logf: log.Printf})
	if err != nil {
		return err
	}
	// Fleet boots race (the seed may still be building its scenario), so
	// keep knocking rather than dying on the first refused dial.
	if err := agent.JoinRetry(seeds, cluster.DefaultJoinRetryWindow, log.Printf); err != nil {
		return err
	}
	router.AttachMembership(agent)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	return cluster.ListenAndServe(ctx, addr, router, func(a net.Addr) {
		log.Printf("routing on %s: %d shards from gossip, %d vnodes each, probe %v ×%d",
			a, router.Ring().Len(), vnodes, probeEvery, misses)
	})
}
