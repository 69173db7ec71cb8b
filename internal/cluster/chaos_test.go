package cluster

import (
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/netfault"
)

// TestClusterChaosKillHeal drives a seeded workload through a topology whose
// router→shard links all run through netfault stream proxies, crash-stopping
// and healing shards mid-sweep. The availability contract under test: a
// cluster with at least one live shard never answers a well-formed request
// with anything but 200 — failures eject and retry inside the router, and
// healed shards are re-admitted with their ranges handed back.
func TestClusterChaosKillHeal(t *testing.T) {
	proxies := map[string]*netfault.StreamProxy{}
	lc := startCluster(t, 3, func(id, addr string) (string, func(), error) {
		p, err := netfault.NewStream(addr, nil, nil)
		if err != nil {
			return "", nil, err
		}
		proxies[id] = p
		return p.Addr(), func() { p.Close() }, nil
	})

	// The fault schedule targets shards that actually own ranges, so every
	// blackhole window forces at least one in-band ejection.
	ring := lc.Router().Ring()
	var owners []string
	for _, id := range ring.nodes {
		for k := 0; k < clusterCount; k++ {
			if ring.Owner(k) == id {
				owners = append(owners, id)
				break
			}
		}
	}
	if len(owners) < 2 {
		// 8 clusters over 3 shards: at least two shards own ranges for any
		// hash layout this seed-free topology can produce.
		t.Fatalf("only %d shards own ranges", len(owners))
	}
	victimA, victimB := owners[0], owners[1]

	heal := func(id string) {
		proxies[id].SetBlackhole(false)
		// One probe pass re-admits a healed shard (fresh-dial retry inside).
		lc.Router().ProbeOnce()
		if st := lc.Router().Stats(); st.LiveShards != 3 {
			t.Fatalf("heal of %s did not restore the fleet: %d live", id, st.LiveShards)
		}
	}

	rng := rand.New(rand.NewSource(7))
	const iters = 240
	non200 := 0
	for i := 0; i < iters; i++ {
		switch i {
		case 60:
			proxies[victimA].SetBlackhole(true)
		case 120:
			heal(victimA)
		case 150:
			proxies[victimB].SetBlackhole(true)
		case 210:
			heal(victimB)
		}
		// Interleave a seeded pick with a full sweep position so every
		// range sees traffic during every fault window.
		k := i % clusterCount
		if i%3 == 0 {
			k = rng.Intn(clusterCount)
		}
		code, body := post(t, lc.Addr(), "/v1/allocate", allocBody(k))
		if code != http.StatusOK {
			non200++
			t.Errorf("iter %d cluster %d: %d %s", i, k, code, body)
		}
	}
	if non200 != 0 {
		t.Fatalf("%d/%d well-formed requests answered non-200 under chaos", non200, iters)
	}

	st := lc.Router().Stats()
	if st.Ejections < 2 || st.Rejoins < 2 {
		t.Fatalf("chaos produced ejections=%d rejoins=%d; want ≥2 each (two kill/heal cycles)", st.Ejections, st.Rejoins)
	}
	if st.LiveShards != 3 {
		t.Fatalf("fleet did not fully recover: %d live", st.LiveShards)
	}
	if st.NoShard503s != 0 {
		t.Fatalf("router issued %d no-shard 503s with survivors present", st.NoShard503s)
	}
	for _, sc := range st.Shards {
		if !sc.Alive {
			t.Fatalf("shard %s still marked dead after heals", sc.ID)
		}
	}
	// The proxies must actually have dropped connections during the windows —
	// otherwise the test faulted nothing.
	droppedTotal := int64(0)
	for _, p := range proxies {
		droppedTotal += p.Counts().Dropped
	}
	if droppedTotal == 0 {
		t.Fatal("no connection passed through a fault window; chaos schedule is dead code")
	}
}
