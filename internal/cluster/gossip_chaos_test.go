package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

func mustUnmarshal(t *testing.T, blob []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(blob, v); err != nil {
		t.Fatalf("unmarshal %s: %v", blob, err)
	}
}

// linkRules is a mutable set of directed gossip blackholes shared by every
// member's wrapped transport: block(from, toAddr) cuts one directed link,
// blockAllTo(addr) cuts every inbound link to one member. The serve/HTTP
// tier is untouched — these partitions exist only on the membership plane,
// which is exactly the asymmetry the SWIM machinery must survive.
type linkRules struct {
	mu    sync.Mutex
	links map[string]bool // "from→toAddr"
	all   map[string]bool // toAddr blocked from every sender
}

func newLinkRules() *linkRules {
	return &linkRules{links: map[string]bool{}, all: map[string]bool{}}
}

func (r *linkRules) block(from, toAddr string) {
	r.mu.Lock()
	r.links[from+"→"+toAddr] = true
	r.mu.Unlock()
}

func (r *linkRules) blockAllTo(toAddr string) {
	r.mu.Lock()
	r.all[toAddr] = true
	r.mu.Unlock()
}

func (r *linkRules) healAllTo(toAddr string) {
	r.mu.Lock()
	delete(r.all, toAddr)
	r.mu.Unlock()
}

func (r *linkRules) dropped(from, toAddr string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.all[toAddr] || r.links[from+"→"+toAddr]
}

type faultTransport struct {
	inner Transport
	self  string
	rules *linkRules
}

func (t faultTransport) Exchange(addr string, msg *GossipMsg, timeout time.Duration) (*GossipMsg, error) {
	if t.rules.dropped(t.self, addr) {
		return nil, fmt.Errorf("chaos: gossip link %s→%s blackholed", t.self, addr)
	}
	return t.inner.Exchange(addr, msg, timeout)
}

// startGossipCluster boots an n-shard topology with a live membership plane
// at test-speed timings. The router's own probe ticker is effectively off
// (one initial pass, then hourly), so ring changes during these tests come
// from gossip and in-request I/O — the inputs under test.
func startGossipCluster(t *testing.T, n int, g LocalGossipOptions) *LocalCluster {
	t.Helper()
	lc, err := StartLocal(testTemplate(), testStore(t), nil, LocalOptions{
		Shards: n,
		Serve:  fastServeConfig(),
		Router: RouterConfig{
			ProbeEvery:   time.Hour,
			ProbeTimeout: 2 * time.Second,
		},
		Gossip: g,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc
}

func fleetCounters(lc *LocalCluster) (suspects, refutations, dead int64) {
	for _, a := range lc.LiveAgents() {
		st := a.MembershipStats()
		suspects += st.SuspectsDeclared
		refutations += st.Refutations
		dead += st.DeadConfirmed
	}
	return
}

// TestGossipChaosAsymmetricLinkIndirectProbe: cut the router→victim gossip
// link only. The router's direct pings to the victim all miss, but its
// indirect ping-reqs relayed through the other shards succeed — so the
// victim is never suspected by the router, never confirmed dead by anyone,
// and never leaves the ring. This is the single-prober false-positive the
// membership plane exists to remove.
func TestGossipChaosAsymmetricLinkIndirectProbe(t *testing.T) {
	rules := newLinkRules()
	lc := startGossipCluster(t, 3, LocalGossipOptions{
		Interval:         40 * time.Millisecond,
		ProbeTimeout:     250 * time.Millisecond,
		SuspicionTimeout: 2 * time.Second,
		WrapTransport: func(selfID string, tr Transport) Transport {
			return faultTransport{inner: tr, self: selfID, rules: rules}
		},
	})
	victim := lc.ShardID(0)
	rules.block("router", lc.ShardAddr(0))

	// Wait until the router has demonstrably exercised the indirect path:
	// several direct misses, several relayed acks.
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := lc.RouterAgent().MembershipStats()
		if st.PingTimeouts >= 2 && st.IndirectAcks >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never exercised the indirect path: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if _, _, dead := fleetCounters(lc); dead != 0 {
		t.Fatalf("asymmetric partition produced %d dead-confirmations; indirect probes should have saved the victim", dead)
	}
	if m, ok := lc.RouterAgent().View().Find(victim); !ok || m.State == StateDead {
		t.Fatalf("router view of %s: %+v (found=%v), want not-dead", victim, m, ok)
	}
	if live := lc.Router().Stats().LiveShards; live != 3 {
		t.Fatalf("victim ejected from the ring: %d live shards, want 3", live)
	}
}

// TestGossipChaosInboundPartitionRefutation: cut EVERY inbound gossip link
// to the victim. Now the indirect path cannot save it — the fleet suspects
// it — but the victim's outbound links survive, it hears the rumor riding
// back on its own pings' acks, and refutes at a higher incarnation before
// the suspicion window closes. Property: a member that can still talk is
// never confirmed dead, and the ring never ejects it.
func TestGossipChaosInboundPartitionRefutation(t *testing.T) {
	rules := newLinkRules()
	lc := startGossipCluster(t, 3, LocalGossipOptions{
		Interval:         40 * time.Millisecond,
		ProbeTimeout:     200 * time.Millisecond,
		SuspicionTimeout: 1500 * time.Millisecond,
		WrapTransport: func(selfID string, tr Transport) Transport {
			return faultTransport{inner: tr, self: selfID, rules: rules}
		},
	})
	victim := lc.ShardID(0)
	victimAgent := lc.ShardAgent(0)
	rules.blockAllTo(lc.ShardAddr(0))

	// The victim must get suspected AND refute itself at least once.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if st := victimAgent.MembershipStats(); st.Refutations >= 1 {
			break
		}
		if time.Now().After(deadline) {
			suspects, refutes, dead := fleetCounters(lc)
			t.Fatalf("victim never refuted a suspicion (fleet: %d suspects, %d refutations, %d dead)",
				suspects, refutes, dead)
		}
		time.Sleep(10 * time.Millisecond)
	}

	suspects, _, dead := fleetCounters(lc)
	if suspects < 1 {
		t.Fatalf("full inbound partition raised no suspicion; the fault injected nothing")
	}
	if dead != 0 {
		t.Fatalf("victim confirmed dead %d times despite live outbound links; refutation failed", dead)
	}
	if inc := victimAgent.Incarnation(); inc < 1 {
		t.Fatalf("victim incarnation %d after refuting, want ≥1", inc)
	}
	if live := lc.Router().Stats().LiveShards; live != 3 {
		t.Fatalf("refuting victim was ejected: %d live shards, want 3", live)
	}

	// Heal and show the fleet re-converges on everyone alive.
	rules.healAllTo(lc.ShardAddr(0))
	if _, ok := lc.AwaitConverged(10*time.Second, func(v View) bool {
		m, found := v.Find(victim)
		return found && m.State == StateAlive
	}); !ok {
		t.Fatal("fleet did not re-converge on the victim alive after heal")
	}
}

// TestGossipChaosFlapMonotoneIncarnations: crash-stop and restart one shard
// twice while sampling the router's view of it. The observed lifecycle must
// pass through suspect and dead on each kill and return to alive on each
// restart, and — the linearizing property refutation rests on — the victim's
// incarnation as seen by the router must never move backwards.
func TestGossipChaosFlapMonotoneIncarnations(t *testing.T) {
	lc := startGossipCluster(t, 3, LocalGossipOptions{
		Interval:         40 * time.Millisecond,
		ProbeTimeout:     200 * time.Millisecond,
		SuspicionTimeout: 500 * time.Millisecond,
	})
	const victim = 1
	id := lc.ShardID(victim)

	type sample struct {
		inc uint64
		st  MemberState
	}
	var mu sync.Mutex
	var samples []sample
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if m, ok := lc.RouterAgent().View().Find(id); ok {
				mu.Lock()
				if n := len(samples); n == 0 || samples[n-1] != (sample{m.Incarnation, m.State}) {
					samples = append(samples, sample{m.Incarnation, m.State})
				}
				mu.Unlock()
			}
		}
	}()

	for flap := 0; flap < 2; flap++ {
		if err := lc.KillShard(victim); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			if m, ok := lc.RouterAgent().View().Find(id); ok && m.State == StateDead {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("flap %d: router never saw %s dead", flap, id)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err := lc.RestartShard(victim); err != nil {
			t.Fatalf("flap %d: restart: %v", flap, err)
		}
	}
	close(stop)
	wg.Wait()

	// The sampler races the restart's re-admission wait (it may be stopped a
	// tick before the router applies the final alive record), so the closing
	// observation is taken authoritatively rather than trusted to the last
	// sampler tick. Once applied, precedence makes it sticky — no stale
	// lower-incarnation obituary can re-mask it.
	var final sample
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m, ok := lc.RouterAgent().View().Find(id); ok && m.State == StateAlive {
			final = sample{m.Incarnation, m.State}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never re-admitted %s after the final restart", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	samples = append(samples, final)
	if len(samples) < 5 {
		t.Fatalf("sampler observed only %d transitions: %+v", len(samples), samples)
	}
	sawSuspect, sawDead := false, false
	for i, s := range samples {
		if s.st == StateSuspect {
			sawSuspect = true
		}
		if s.st == StateDead {
			sawDead = true
		}
		if i > 0 && s.inc < samples[i-1].inc {
			t.Fatalf("incarnation moved backwards at transition %d: %+v", i, samples)
		}
	}
	if !sawSuspect || !sawDead {
		t.Fatalf("lifecycle incomplete (suspect=%v dead=%v): %+v", sawSuspect, sawDead, samples)
	}
	if final.inc < 2 {
		t.Fatalf("two flaps ended at incarnation %d, want ≥2 (one bump per rejoin)", final.inc)
	}
	lc.Router().ProbeOnce()
	if live := lc.Router().Stats().LiveShards; live != 3 {
		t.Fatalf("fleet did not recover: %d live shards", live)
	}
}

// TestGossipChaosJoinDuringKillChurn: the hardest convergence case the ISSUE
// names — a shard dies, a brand-new shard joins flag-free through the gossip
// plane while the fleet is still digesting the death, and the victim then
// rejoins — all under continuous client load. Properties: zero non-2xx
// throughout, the newcomer enters the ring via gossip alone, and every
// surviving view converges to one (epoch, digest) within a bounded window.
func TestGossipChaosJoinDuringKillChurn(t *testing.T) {
	lc := startGossipCluster(t, 3, LocalGossipOptions{
		Interval:         40 * time.Millisecond,
		ProbeTimeout:     200 * time.Millisecond,
		SuspicionTimeout: 600 * time.Millisecond,
	})

	drive := func(phase string, iters int) {
		t.Helper()
		for i := 0; i < iters; i++ {
			k := i % clusterCount
			code, body := post(t, lc.Addr(), "/v1/allocate", allocBody(k))
			if code != http.StatusOK {
				t.Errorf("%s iter %d cluster %d: %d %s", phase, i, k, code, body)
			}
		}
	}

	drive("warm", clusterCount) // every range answered once

	const victim = 1
	if err := lc.KillShard(victim); err != nil {
		t.Fatal(err)
	}
	drive("post-kill", 40) // ejection + retry path: still all 200

	// Join a brand-new shard while the victim is still dead. No flag
	// change anywhere: the newcomer dials a live peer, the router admits it
	// from the converged view.
	idx, err := lc.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	if idx != 3 {
		t.Fatalf("new shard landed at index %d, want 3", idx)
	}
	drive("post-join", 40)

	if err := lc.RestartShard(victim); err != nil {
		t.Fatal(err)
	}
	drive("post-restart", 40)

	// Bounded convergence: every surviving agent (4 shards + router) must
	// agree on one epoch and one digest with all four shards alive.
	ids := []string{lc.ShardID(0), lc.ShardID(1), lc.ShardID(2), lc.ShardID(3)}
	dt, ok := lc.AwaitConverged(15*time.Second, func(v View) bool {
		for _, id := range ids {
			if m, found := v.Find(id); !found || m.State != StateAlive {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatalf("churned fleet did not converge on all-alive within 15s")
	}
	t.Logf("churn converged in %v", dt)

	lc.Router().ProbeOnce()
	st := lc.Router().Stats()
	if st.LiveShards != 4 {
		t.Fatalf("%d live shards after churn, want 4", st.LiveShards)
	}
	if st.GossipJoins < 1 {
		t.Fatalf("router admitted %d members via gossip, want ≥1 (the flag-free join)", st.GossipJoins)
	}
	if st.NoShard503s != 0 {
		t.Fatalf("router issued %d no-shard 503s with survivors present", st.NoShard503s)
	}
	if st.MembershipEpoch == 0 {
		t.Fatal("router stats carry no membership epoch")
	}
}

// TestGossipStatsSurfaced: the membership plane shows up on both stats
// surfaces — each shard's /v1/stats carries its agent's counters, and the
// router's carries the epoch plus its own agent view.
func TestGossipStatsSurfaced(t *testing.T) {
	lc := startGossipCluster(t, 2, LocalGossipOptions{})
	if _, ok := lc.AwaitConverged(10*time.Second, func(v View) bool {
		return len(v.Members) == 3 // 2 shards + router
	}); !ok {
		t.Fatal("fleet never converged on the full member table")
	}

	var shardStats struct {
		Membership *struct {
			Epoch   uint64 `json:"membership_epoch"`
			Members int    `json:"members"`
			Alive   int    `json:"alive"`
			Digest  string `json:"view_digest"`
		} `json:"membership"`
	}
	code, body := get(t, lc.ShardAddr(0), "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("shard stats: %d", code)
	}
	mustUnmarshal(t, body, &shardStats)
	if shardStats.Membership == nil {
		t.Fatalf("shard stats carry no membership section: %s", body)
	}
	if shardStats.Membership.Epoch < 1 || shardStats.Membership.Members != 3 || shardStats.Membership.Alive != 3 {
		t.Fatalf("shard membership stats: %+v", shardStats.Membership)
	}
	if shardStats.Membership.Digest == "" {
		t.Fatal("shard membership stats carry no view digest")
	}

	var routerStats struct {
		MembershipEpoch uint64 `json:"membership_epoch"`
		Membership      *struct {
			Members int `json:"members"`
		} `json:"membership"`
	}
	code, body = get(t, lc.Addr(), "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("router stats: %d", code)
	}
	mustUnmarshal(t, body, &routerStats)
	if routerStats.MembershipEpoch < 1 || routerStats.Membership == nil || routerStats.Membership.Members != 3 {
		t.Fatalf("router membership stats: epoch=%d membership=%+v",
			routerStats.MembershipEpoch, routerStats.Membership)
	}

	// The gossip endpoint itself answers on both tiers.
	if code, _ := post(t, lc.ShardAddr(0), GossipPath, []byte(`{not a gossip msg`)); code != http.StatusBadRequest {
		t.Fatalf("shard gossip endpoint answered %d to junk, want 400", code)
	}
}

// TestClusterChaosKillConverges bounds the membership plane's failure
// detection end to end: kill one shard of a converged 3-shard fleet cold
// (its agent stops gossiping, so the survivors must detect the death, not
// be told), and every surviving view must agree on its obituary within 5 s;
// restart it, and every view must agree it is alive again. The fleet-wide
// protocol counters must show the path taken: a suspicion, a confirmed
// death and the restarted shard's refutation.
func TestClusterChaosKillConverges(t *testing.T) {
	const deadBar = 5 * time.Second
	lc := startGossipCluster(t, 3, LocalGossipOptions{})
	if _, ok := lc.AwaitConverged(10*time.Second, func(v View) bool {
		return len(v.Alive("")) == 4 // 3 shards + router
	}); !ok {
		t.Fatal("fleet never converged on the full member table")
	}
	victim := lc.Shards() - 1
	id := lc.ShardID(victim)
	if err := lc.KillShard(victim); err != nil {
		t.Fatal(err)
	}
	killDt, ok := lc.AwaitConverged(3*deadBar, func(v View) bool {
		m, found := v.Find(id)
		return found && m.State == StateDead
	})
	if !ok {
		t.Fatalf("views did not converge on %s dead within %v", id, 3*deadBar)
	}
	if killDt > deadBar {
		t.Fatalf("kill→dead converged in %v, want ≤ %v", killDt, deadBar)
	}
	if err := lc.RestartShard(victim); err != nil {
		t.Fatal(err)
	}
	rejoinDt, ok := lc.AwaitConverged(3*deadBar, func(v View) bool {
		m, found := v.Find(id)
		return found && m.State == StateAlive
	})
	if !ok {
		t.Fatalf("views did not converge on %s alive within %v of its restart", id, 3*deadBar)
	}
	suspects, refutations, dead := fleetCounters(lc)
	t.Logf("%s dead-converged in %v, alive-converged after restart in %v (%d suspects, %d refutations, %d dead-confirms fleet-wide)",
		id, killDt.Round(time.Millisecond), rejoinDt.Round(time.Millisecond), suspects, refutations, dead)
	if suspects < 1 || dead < 1 || refutations < 1 {
		t.Fatalf("fleet counters: %d suspects, %d dead-confirms, %d refutations, want each ≥ 1", suspects, dead, refutations)
	}
}
