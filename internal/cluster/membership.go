package cluster

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// MembershipManager keeps one shard's serve-side identity in lockstep with
// the gossip plane's converged view: whenever the effective member set
// changes (the first view, a join, a confirmed death, a refuted obituary)
// it recomputes the shard's primary and replica ranges over the new full
// ring, swaps the snapshot the replication sender resolves peers from, and
// pulls warm state for any cluster ranges the shard just gained. It is the
// only code that assigns a shard's identity, replication peers and warm
// pulls, so `-join host:port` is a complete join: no other member needs a
// flag change for ownership, replication, and warm handoff to re-shape
// around the newcomer.
type MembershipManager struct {
	s         *serve.Server
	agent     *Agent
	self      Shard
	vnodes    int
	replicas  int
	pageLimit int
	timeout   time.Duration
	logf      func(format string, args ...any)

	// snap is the peer-resolution snapshot read by the replication
	// sender's PeersFor on every push — swapped wholesale per view change.
	snap atomic.Pointer[memberSnap]

	// pending is the latest unapplied view (latest-wins mailbox): view
	// callbacks must not block on network pulls, so the manager goroutine
	// does the heavy lifting.
	mu      sync.Mutex
	pending *View
	kick    chan struct{}

	// Applied-state bookkeeping, touched only by apply (constructor, then
	// the single manager goroutine).
	lastFP    string
	ownedPrev map[int]bool
}

type memberSnap struct {
	ring     *Ring
	addrs    map[string]string
	selfID   string
	replicas int
}

// PeersFor resolves a cluster key's replica peers against the manager's
// current member snapshot. Handed to the replication sender once; every
// push reads the newest snapshot.
func (m *MembershipManager) PeersFor(cluster int) []string {
	sn := m.snap.Load()
	if sn == nil || sn.ring == nil || sn.ring.Len() == 0 {
		return nil
	}
	var out []string
	for _, owner := range sn.ring.OwnersFor(cluster, sn.replicas) {
		if owner == sn.selfID {
			continue
		}
		if addr := sn.addrs[owner]; addr != "" {
			out = append(out, addr)
		}
	}
	return out
}

// ManageMembership wires a shard's server to its gossip agent and applies
// the current view synchronously (so the caller returns with identity
// assigned and warm state pulled — the returned count). It then follows
// every view change until ctx ends. Replication (when replicas >= 2) is
// enabled against the manager's PeersFor, which reads the newest member
// snapshot on every push.
func ManageMembership(ctx context.Context, s *serve.Server, agent *Agent, self Shard, vnodes, replicas, pageLimit int, timeout time.Duration, logf func(string, ...any)) (int, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if vnodes < 1 {
		vnodes = DefaultVNodes
	}
	if replicas < 1 {
		replicas = 1
	}
	if timeout <= 0 {
		timeout = DefaultHandoffTimeout
	}
	m := &MembershipManager{
		s: s, agent: agent, self: self,
		vnodes: vnodes, replicas: replicas, pageLimit: pageLimit,
		timeout: timeout, logf: logf,
		kick:      make(chan struct{}, 1),
		ownedPrev: make(map[int]bool),
	}
	if replicas >= 2 {
		if err := s.EnableReplication(serve.ReplicationConfig{PeersFor: m.PeersFor, Logf: logf}); err != nil {
			return 0, fmt.Errorf("cluster: membership replication: %w", err)
		}
	}
	s.SetMembership(agent.MembershipStats)
	pulled := m.apply(agent.View())
	go m.run(ctx)
	agent.Subscribe(m.offer)
	return pulled, nil
}

// offer is the agent's view-change callback: record the newest view and
// nudge the manager goroutine. Never blocks.
func (m *MembershipManager) offer(v View) {
	m.mu.Lock()
	m.pending = &v
	m.mu.Unlock()
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

func (m *MembershipManager) run(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-m.kick:
		}
		m.mu.Lock()
		v := m.pending
		m.pending = nil
		m.mu.Unlock()
		if v != nil {
			m.apply(*v)
		}
	}
}

// apply reshapes identity around one view. Returns how many policies were
// warm-pulled for newly-gained ranges (zero when the effective member set
// didn't change — state flaps between alive and suspect don't move
// ownership).
func (m *MembershipManager) apply(v View) int {
	members := make([]Shard, 0, len(v.Members))
	selfIn := false
	for _, mem := range v.Members {
		if mem.Role != RoleShard || mem.State == StateDead || mem.Addr == "" {
			continue
		}
		members = append(members, Shard{ID: mem.ID, Addr: mem.Addr})
		if mem.ID == m.self.ID {
			selfIn = true
		}
	}
	if !selfIn {
		// Our own obituary is still converging (the refutation is in
		// flight); reshaping now would orphan every range.
		return 0
	}
	sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
	var fp strings.Builder
	for _, sh := range members {
		fp.WriteString(sh.ID)
		fp.WriteByte('=')
		fp.WriteString(sh.Addr)
		fp.WriteByte(';')
	}
	if fp.String() == m.lastFP {
		return 0
	}

	ids := make([]string, 0, len(members))
	addrs := make(map[string]string, len(members))
	for _, sh := range members {
		ids = append(ids, sh.ID)
		addrs[sh.ID] = sh.Addr
	}
	ring, err := NewRing(m.vnodes, ids)
	if err != nil {
		m.logf("cluster: membership: ring over %d members: %v", len(members), err)
		return 0
	}
	m.snap.Store(&memberSnap{ring: ring, addrs: addrs, selfID: m.self.ID, replicas: m.replicas})

	// Ownership is a property of the full member set, not of any router's
	// live view: with replicas >= 2 every cluster key gets that many
	// distinct owners, the first primary, the rest successor replicas.
	primary, replica := ring.ReplicatedClusters(m.self.ID, m.s.Store().Len(), m.replicas)
	m.s.SetClusterIdentity(serve.ClusterIdentity{
		NodeID:          m.self.ID,
		RingPositions:   ring.VNodes(),
		OwnedClusters:   primary,
		OwnedFraction:   ring.OwnedFraction(m.self.ID),
		ReplicaGroups:   m.replicas,
		ReplicaClusters: replica,
	})
	owned := make(map[int]bool, len(primary)+len(replica))
	var gainedP, gainedR []int
	for _, k := range primary {
		owned[k] = true
		if !m.ownedPrev[k] {
			gainedP = append(gainedP, k)
		}
	}
	for _, k := range replica {
		owned[k] = true
		if !m.ownedPrev[k] {
			gainedR = append(gainedR, k)
		}
	}
	m.ownedPrev = owned
	m.lastFP = fp.String()

	pulled := 0
	if len(gainedP)+len(gainedR) > 0 {
		var peers []Shard
		for _, sh := range members {
			if sh.ID != m.self.ID {
				peers = append(peers, sh)
			}
		}
		pulled = PullWarmState(m.s, peers, gainedP, gainedR, m.pageLimit, m.timeout, m.logf)
	}
	m.logf("cluster: membership: %s reshaped over %d members (epoch %d): %d primary, %d replica, %d gained ranges, %d pulled",
		m.self.ID, len(members), v.Epoch, len(primary), len(replica), len(gainedP)+len(gainedR), pulled)
	return pulled
}
