package cluster

import (
	"fmt"
	"strconv"
	"time"
)

// The fault-injection half of the LocalCluster harness: kill, restart and
// add shards, and wait for the membership plane to converge. Only the
// package's chaos and failover tests drive these.

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
// server and rejoins it to the gossip plane. Returns once the router's view
// holds the shard alive again.
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
	// LiveShards right after this returns.
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

// ViewsConverged reports whether every view agrees on (Epoch, Digest).
func ViewsConverged(views []View) bool {
	for i := 1; i < len(views); i++ {
		if views[i].Epoch != views[0].Epoch || views[i].Digest != views[0].Digest {
			return false
		}
	}
	return len(views) > 0
}

// Find returns the view's record of one member.
func (v View) Find(id string) (Member, bool) {
	for _, m := range v.Members {
		if m.ID == id {
			return m, true
		}
	}
	return Member{}, false
}
