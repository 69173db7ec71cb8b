package cluster

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/serve"
)

// membershipManager keeps one shard's serve-side identity in lockstep with
// the gossip plane's converged view: whenever the effective member set
// changes (the first view, a join, a confirmed death, a refuted obituary)
// it recomputes the shard's owned clusters over the new full ring. It is
// the only code that assigns a shard's identity, so `-join host:port` is a
// complete join: no other member needs a flag change for ownership to
// re-shape around the newcomer.
type membershipManager struct {
	s      *serve.Server
	self   Shard
	vnodes int
	logf   func(format string, args ...any)

	// mu serializes apply: view callbacks run on any gossip goroutine.
	mu     sync.Mutex
	lastFP string
}

// ManageMembership wires a shard's server to its gossip agent: the agent's
// stats join the server's, and the current view, then every later one,
// sets the shard's identity. The identity is assigned before it returns.
func ManageMembership(s *serve.Server, agent *Agent, self Shard, vnodes int, logf func(string, ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if vnodes < 1 {
		vnodes = DefaultVNodes
	}
	m := &membershipManager{s: s, self: self, vnodes: vnodes, logf: logf}
	s.SetMembership(agent.MembershipStats)
	agent.Subscribe(m.apply)
}

// apply reshapes identity around one view. A view whose effective member
// set did not change (state flaps between alive and suspect) is a no-op.
func (m *membershipManager) apply(v View) {
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
		return
	}
	sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
	var fp strings.Builder
	ids := make([]string, 0, len(members))
	for _, sh := range members {
		fp.WriteString(sh.ID)
		fp.WriteByte('=')
		fp.WriteString(sh.Addr)
		fp.WriteByte(';')
		ids = append(ids, sh.ID)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if fp.String() == m.lastFP {
		return
	}
	ring, err := NewRing(m.vnodes, ids)
	if err != nil {
		m.logf("cluster: membership: ring over %d members: %v", len(members), err)
		return
	}
	// Ownership is a property of the full member set, not of any router's
	// live view.
	owned := ring.OwnedClusters(m.self.ID, m.s.Store().Len())
	m.s.SetClusterIdentity(serve.ClusterIdentity{
		NodeID:        m.self.ID,
		RingPositions: ring.VNodes(),
		OwnedClusters: owned,
		OwnedFraction: ring.OwnedFraction(m.self.ID),
	})
	m.lastFP = fp.String()
	m.logf("cluster: membership: %s reshaped over %d members (epoch %d): %d owned clusters",
		m.self.ID, len(members), v.Epoch, len(owned))
}
