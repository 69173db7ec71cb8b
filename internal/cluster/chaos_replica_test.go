package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/netfault"
	"repro/internal/serve"
)

// TestClusterChaosReplicaFailover is the failover availability sweep:
// seeded kill-owner / kill-successor / kill-both windows over netfault
// stream proxies must produce zero non-200s, and every answer — whichever
// replica gives it — is the normal one, the same allocation the range's
// owner gave before any kill: every shard serves one store, and no answer
// depends on which shard has seen which requests.
func TestClusterChaosReplicaFailover(t *testing.T) {
	proxies := map[string]*netfault.StreamProxy{}
	lc := startCluster(t, 3, func(id, addr string) (string, func(), error) {
		p, err := netfault.NewStream(addr, nil, nil)
		if err != nil {
			return "", nil, err
		}
		proxies[id] = p
		return p.Addr(), func() { p.Close() }, nil
	})

	before := make([]serve.AllocateResponse, clusterCount)
	for k := 0; k < clusterCount; k++ {
		code, body := post(t, lc.Addr(), "/v1/allocate", allocBody(k))
		before[k] = answer(t, fmt.Sprintf("cluster %d", k), code, body)
	}

	// Cluster 0's owner on the full ring, and the shard its range fails
	// over to.
	full := lc.Router().Ring()
	owner := full.Owner(0)
	without, err := NewRing(lc.Router().cfg.VNodes, slices.DeleteFunc(slices.Clone(full.nodes), func(n string) bool { return n == owner }))
	if err != nil {
		t.Fatal(err)
	}
	successor := without.Owner(0)
	if successor == owner || successor == "" {
		t.Fatalf("cluster 0: owner %q, successor %q", owner, successor)
	}

	heal := func(ids ...string) {
		for _, id := range ids {
			proxies[id].SetBlackhole(false)
		}
		lc.Router().ProbeOnce()
		if st := lc.Router().Stats(); st.LiveShards != 3 {
			t.Fatalf("heal of %v did not restore the fleet: %d live", ids, st.LiveShards)
		}
	}

	rng := rand.New(rand.NewSource(23))
	for _, ph := range []struct {
		name string
		kill []string
	}{
		{"kill-owner", []string{owner}},
		{"kill-successor", []string{successor}},
		{"kill-both", []string{owner, successor}},
	} {
		for _, id := range ph.kill {
			proxies[id].SetBlackhole(true)
		}
		const rounds = 3
		for r := 0; r < rounds; r++ {
			for _, k := range rng.Perm(clusterCount) {
				code, body := post(t, lc.Addr(), "/v1/allocate", allocBody(k))
				got := answer(t, fmt.Sprintf("%s: cluster %d", ph.name, k), code, body)
				if !sameAllocation(got, before[k]) {
					t.Fatalf("%s: cluster %d answered %v, before any kill %v", ph.name, k, got.Allocation, before[k].Allocation)
				}
			}
		}
		heal(ph.kill...)
	}

	st := lc.Router().Stats()
	if st.NoShard503s != 0 {
		t.Fatalf("router issued %d no-shard 503s with survivors present", st.NoShard503s)
	}
	if st.Ejections < 3 {
		t.Fatalf("chaos produced %d ejections; want ≥3 (one per kill window)", st.Ejections)
	}
	droppedTotal := int64(0)
	for _, p := range proxies {
		droppedTotal += p.Counts().Dropped
	}
	if droppedTotal == 0 {
		t.Fatal("no connection passed through a fault window; chaos schedule is dead code")
	}
}

// TestRouterConcurrentProbeSingleEjection pins the probe path's concurrency
// contract: Run's ticker and test-driven ProbeOnce calls may overlap, and a
// dead shard must be ejected exactly once (and re-admitted exactly once)
// however many probe passes race over the transition. Run under -race this
// also proves misses/probeConn are properly serialized.
func TestRouterConcurrentProbeSingleEjection(t *testing.T) {
	lc := startCluster(t, 3, nil)
	if err := lc.KillShard(0); err != nil {
		t.Fatal(err)
	}

	probeStorm := func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					lc.Router().ProbeOnce()
				}
			}()
		}
		wg.Wait()
	}

	probeStorm()
	st := lc.Router().Stats()
	if st.Ejections != 1 {
		t.Fatalf("32 racing probe passes ejected %d times, want exactly 1", st.Ejections)
	}
	if st.LiveShards != 2 {
		t.Fatalf("%d live shards after ejection, want 2", st.LiveShards)
	}

	if err := lc.RestartShard(0); err != nil {
		t.Fatal(err)
	}
	probeStorm()
	st = lc.Router().Stats()
	if st.Rejoins != 1 {
		t.Fatalf("racing probe passes re-admitted %d times, want exactly 1", st.Rejoins)
	}
	if st.LiveShards != 3 {
		t.Fatalf("%d live shards after rejoin, want 3", st.LiveShards)
	}
}
