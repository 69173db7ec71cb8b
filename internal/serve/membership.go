package serve

// MembershipStats is the gossip membership plane's contribution to
// /v1/stats: the node's converged view summary (epoch, digest, member
// states), its own incarnation number, and the SWIM protocol counters.
// The serve tier defines the shape (it owns the stats payload) and the
// cluster tier fills it — membership is wired in with SetMembership, so a
// standalone node simply omits the section.
type MembershipStats struct {
	// Epoch is the membership epoch: a Lamport clock every state change
	// advances and every gossip exchange merges, so converged members
	// report the same value.
	Epoch uint64 `json:"membership_epoch"`
	// Digest is a hash over the full member table; equal (Epoch, Digest)
	// pairs mean identical views.
	Digest string `json:"view_digest"`
	// Incarnation is this member's self-owned version counter, bumped only
	// by its own refutations.
	Incarnation uint64 `json:"incarnation"`

	Members int `json:"members"`
	Alive   int `json:"alive"`
	Suspect int `json:"suspect"`
	Dead    int `json:"dead"`

	PingsSent        int64 `json:"pings_sent"`
	PingAcks         int64 `json:"ping_acks"`
	PingTimeouts     int64 `json:"ping_timeouts"`
	IndirectReqs     int64 `json:"indirect_reqs"`
	IndirectAcks     int64 `json:"indirect_acks"`
	SuspectsDeclared int64 `json:"suspects_declared"`
	Refutations      int64 `json:"refutations"`
	DeadConfirmed    int64 `json:"dead_confirmed"`
	UpdatesApplied   int64 `json:"updates_applied"`
	FullSyncs        int64 `json:"full_syncs"`
	JoinsSent        int64 `json:"joins_sent"`
	JoinsServed      int64 `json:"joins_served"`
}

// SetMembership registers the membership-stats provider (the cluster
// tier's gossip agent). Safe to call before serving; nil detaches.
func (s *Server) SetMembership(provider func() *MembershipStats) {
	s.memberMu.Lock()
	s.membership = provider
	s.memberMu.Unlock()
}

func (s *Server) membershipStats() *MembershipStats {
	s.memberMu.Lock()
	provider := s.membership
	s.memberMu.Unlock()
	if provider == nil {
		return nil
	}
	return provider()
}
