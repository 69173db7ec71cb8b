package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/rawhttp"
	"repro/internal/serve"
)

// The gossip membership plane is a SWIM-style failure detector layered on
// the fleet's existing rawhttp machinery: every node (shards and routers
// alike) runs an Agent that periodically pings one random member directly,
// falls back to k indirect ping-reqs relayed through other members on a
// miss, and moves members through alive → suspect → dead with a suspicion
// timeout that gives the accused time to refute. Refutation is
// incarnation-numbered — only a member may raise its own incarnation, and a
// higher incarnation overrides any rumor about a lower one — so a member
// whose inbound links are cut defends itself through whatever outbound
// links survive. Every exchange piggybacks a bounded queue of recent
// membership updates, and every state change advances a Lamport-style
// membership epoch that all members converge to; the router rebuilds its
// ring from the converged view instead of trusting its private probes.

// GossipPath is the membership endpoint mounted on every member.
const GossipPath = "/v1/gossip"

// GossipVersion is the wire-format version of GossipMsg.
const GossipVersion = 1

// Wire-format bounds: DecodeGossip rejects anything outside them, so a
// hostile or corrupt peer cannot balloon a member table.
const (
	maxGossipUpdates = 4096
	maxGossipIDLen   = 128
	maxGossipAddrLen = 256
	maxGossipBody    = 1 << 20
)

// Member roles. Routers gossip like everyone else (they must be pingable
// and they learn the view first-hand) but never own ring ranges.
const (
	RoleShard  = "shard"
	RoleRouter = "router"
)

// MemberState is the SWIM lifecycle state of one member.
type MemberState uint8

const (
	StateAlive MemberState = iota
	StateSuspect
	StateDead
)

func (s MemberState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Member is one node's identity and lifecycle state as the gossip plane
// sees it. Incarnation is the member's self-owned version counter: rumors
// about incarnation i are refuted by the member re-asserting itself at
// i+1, and observers never let a member's incarnation move backwards.
type Member struct {
	ID          string      `json:"id"`
	Addr        string      `json:"addr"`
	Role        string      `json:"role"`
	Incarnation uint64      `json:"inc"`
	State       MemberState `json:"state"`
}

// Update is one piggybacked membership rumor: a member snapshot plus the
// epoch stamped by whoever originated the change.
type Update struct {
	Member
	Epoch uint64 `json:"epoch"`
}

// Gossip message types.
const (
	gossipPing    = "ping"
	gossipPingReq = "ping-req"
	gossipJoin    = "join"
	gossipAck     = "ack"
)

// GossipMsg is the request and reply wire format of POST /v1/gossip. Every
// message carries the sender's self snapshot (From — receiving any message
// is first-hand evidence the sender is alive), the sender's epoch (clocks
// merge on every exchange), and a bounded piggyback of recent updates.
// Joins and periodic anti-entropy syncs carry the full member table
// instead. A ping-req names the member to probe in Target; the relay
// reports the outcome in the reply's Ack.
type GossipMsg struct {
	Version int      `json:"v"`
	Type    string   `json:"type"`
	From    Member   `json:"from"`
	Target  *Member  `json:"target,omitempty"`
	Updates []Update `json:"updates,omitempty"`
	Epoch   uint64   `json:"epoch"`
	Sync    bool     `json:"sync,omitempty"`
	Ack     bool     `json:"ack,omitempty"`
}

func validMember(m Member) error {
	if m.ID == "" || len(m.ID) > maxGossipIDLen {
		return fmt.Errorf("cluster: gossip member id length %d (want 1..%d)", len(m.ID), maxGossipIDLen)
	}
	if len(m.Addr) > maxGossipAddrLen {
		return fmt.Errorf("cluster: gossip member addr length %d > %d", len(m.Addr), maxGossipAddrLen)
	}
	if m.Role != RoleShard && m.Role != RoleRouter {
		return fmt.Errorf("cluster: gossip member role %q", m.Role)
	}
	if m.State > StateDead {
		return fmt.Errorf("cluster: gossip member state %d", m.State)
	}
	return nil
}

// DecodeGossip parses and validates one wire message. Everything it
// accepts is safe to apply: bounded sizes, known type, well-formed members.
func DecodeGossip(data []byte) (*GossipMsg, error) {
	if len(data) > maxGossipBody {
		return nil, fmt.Errorf("cluster: gossip body %d bytes > %d", len(data), maxGossipBody)
	}
	var msg GossipMsg
	if err := json.Unmarshal(data, &msg); err != nil {
		return nil, fmt.Errorf("cluster: gossip decode: %w", err)
	}
	if msg.Version != GossipVersion {
		return nil, fmt.Errorf("cluster: gossip version %d (want %d)", msg.Version, GossipVersion)
	}
	switch msg.Type {
	case gossipPing, gossipPingReq, gossipJoin, gossipAck:
	default:
		return nil, fmt.Errorf("cluster: gossip type %q", msg.Type)
	}
	if err := validMember(msg.From); err != nil {
		return nil, fmt.Errorf("cluster: gossip from: %w", err)
	}
	if msg.Type == gossipPingReq {
		if msg.Target == nil {
			return nil, fmt.Errorf("cluster: ping-req without target")
		}
		if err := validMember(*msg.Target); err != nil {
			return nil, fmt.Errorf("cluster: gossip target: %w", err)
		}
		if msg.Target.Addr == "" {
			return nil, fmt.Errorf("cluster: ping-req target without addr")
		}
	}
	if len(msg.Updates) > maxGossipUpdates {
		return nil, fmt.Errorf("cluster: gossip carries %d updates > %d", len(msg.Updates), maxGossipUpdates)
	}
	for i := range msg.Updates {
		if err := validMember(msg.Updates[i].Member); err != nil {
			return nil, fmt.Errorf("cluster: gossip update %d: %w", i, err)
		}
	}
	return &msg, nil
}

// Transport carries one gossip exchange to a member address and returns
// its reply. The default dials rawhttp per exchange; chaos tests interpose
// per-directed-link fault proxies here.
type Transport interface {
	Exchange(addr string, msg *GossipMsg, timeout time.Duration) (*GossipMsg, error)
}

// HTTPTransport is the production transport: one rawhttp round trip per
// exchange against the peer's /v1/gossip.
type HTTPTransport struct{}

func (HTTPTransport) Exchange(addr string, msg *GossipMsg, timeout time.Duration) (*GossipMsg, error) {
	body, err := json.Marshal(msg)
	if err != nil {
		return nil, err
	}
	conn, err := rawhttp.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.Timeout = timeout
	code, resp, err := conn.Do(rawhttp.BuildFrame(GossipPath, body))
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("cluster: gossip peer %s answered %d", addr, code)
	}
	return DecodeGossip(resp)
}

// View is one member's converged picture of the fleet: the membership
// epoch (a Lamport clock every state change advances and every exchange
// merges), a digest over the full member table, and the table itself
// sorted by id. Two members whose (Epoch, Digest) match hold identical
// views.
type View struct {
	Epoch   uint64
	Digest  uint64
	Members []Member
}

// Alive lists the view's non-dead members with the given role ("" = all).
func (v View) Alive(role string) []Member {
	var out []Member
	for _, m := range v.Members {
		if m.State != StateDead && (role == "" || m.Role == role) {
			out = append(out, m)
		}
	}
	return out
}

// Fixed protocol constants: the suspicion timeout and each rumor's
// dissemination budget scale with ⌈log₂(n+1)⌉ by suspicionMult and
// retransmitMult, at most maxPiggyback rumors ride on one message, and every
// syncEvery-th tick is a full-state anti-entropy exchange, so a member that
// missed every piggyback still converges.
const (
	suspicionMult  = 3
	retransmitMult = 3
	maxPiggyback   = 8
	syncEvery      = 8
)

// GossipConfig tunes one membership agent.
type GossipConfig struct {
	// Interval is the protocol period: one direct probe per tick, jittered
	// ±25% so a fleet never probes in lockstep (default 1s).
	Interval time.Duration
	// ProbeTimeout bounds one direct or relayed ping (default Interval/2,
	// min 10ms).
	ProbeTimeout time.Duration
	// IndirectPeers is k, the relay count for indirect ping-reqs after a
	// direct miss (default 3).
	IndirectPeers int
	// SuspicionTimeout is how long a suspect may stay unrefuted before it
	// is confirmed dead (default suspicionMult × Interval × ⌈log₂(n+1)⌉).
	SuspicionTimeout time.Duration
	// Seed feeds the agent's probe-order and jitter rng (default 1).
	Seed int64
	// Now is the suspicion clock (default time.Now).
	Now func() time.Time
	// Transport carries exchanges (default HTTPTransport).
	Transport Transport
	// Logf sinks membership transitions (default: discard).
	Logf func(format string, args ...any)
}

func (c GossipConfig) withDefaults() GossipConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.Interval / 2
		if c.ProbeTimeout < 10*time.Millisecond {
			c.ProbeTimeout = 10 * time.Millisecond
		}
	}
	if c.IndirectPeers < 1 {
		c.IndirectPeers = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Transport == nil {
		c.Transport = HTTPTransport{}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// memberRecord is the agent's private state for one member.
type memberRecord struct {
	Member
	stamp     uint64    // epoch of the change that produced this state
	suspectAt time.Time // suspicion deadline while State == StateSuspect
}

// queuedUpdate is one rumor awaiting piggybacked retransmission. One entry
// per member: a newer rumor about the same member replaces the older one
// and resets the budget.
type queuedUpdate struct {
	u    Update
	left int
}

// Agent is one node's SWIM membership agent.
type Agent struct {
	cfg  GossipConfig
	self string

	mu      sync.Mutex
	members map[string]*memberRecord
	epoch   uint64
	queue   []*queuedUpdate
	rng     *rand.Rand
	order   []string // shuffled probe rotation
	orderAt int
	tick    uint64
	changed bool
	subs    []func(View)

	// Counters (guarded by mu, surfaced in MembershipStats).
	pingsSent, pingAcks, pingTimeouts int64
	indirectReqs, indirectAcks        int64
	suspectsDeclared, refutations     int64
	deadConfirmed, updatesApplied     int64
	fullSyncs, joinsSent, joinsServed int64
	epochBumps                        int64
}

// NewAgent builds an agent that knows only itself (alive, incarnation 0).
// Seed or Join introduce the rest of the fleet.
func NewAgent(self Member, cfg GossipConfig) (*Agent, error) {
	self.State = StateAlive
	if err := validMember(self); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	a := &Agent{
		cfg:     cfg,
		self:    self.ID,
		members: map[string]*memberRecord{},
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	a.epoch = 1
	a.members[self.ID] = &memberRecord{Member: self, stamp: a.epoch}
	return a, nil
}

// Seed preloads a member list into the gossip view: every entry lands alive
// at incarnation 0 and is superseded by anything the wire later says.
// LocalCluster seeds every member with the same list so all views agree at
// t=0; it is an input to the one gossip view, not a second membership path.
func (a *Agent) Seed(members []Member) {
	a.mu.Lock()
	for _, m := range members {
		if m.ID == a.self || validMember(Member{ID: m.ID, Addr: m.Addr, Role: m.Role}) != nil {
			continue
		}
		m.State = StateAlive
		m.Incarnation = 0
		a.applyLocked(Update{Member: m})
	}
	fire := a.takeChangeLocked()
	a.mu.Unlock()
	fire()
}

// Join dials seed peers until one answers, announcing this member and
// installing the seed's full member table. This is the flag-free join
// path: any live member's address is enough to enter the fleet, and a
// rejoiner that finds itself remembered as dead refutes its own obituary
// with a higher incarnation.
func (a *Agent) Join(seeds []string) error {
	var lastErr error
	for _, addr := range seeds {
		a.mu.Lock()
		msg := a.composeLocked(gossipJoin, true)
		a.mu.Unlock()
		reply, err := a.cfg.Transport.Exchange(addr, msg, a.cfg.ProbeTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		a.mu.Lock()
		a.joinsSent++
		a.receiveLocked(reply)
		fire := a.takeChangeLocked()
		a.mu.Unlock()
		fire()
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: join: no seeds")
	}
	return fmt.Errorf("cluster: join failed: %w", lastErr)
}

// DefaultJoinRetryWindow is how long JoinRetry keeps knocking on the seed
// peers before giving up — generous enough for a sibling node launched in
// the same breath to finish its scenario build and start listening.
const DefaultJoinRetryWindow = 90 * time.Second

// JoinRetry keeps calling Join until a seed answers or the window runs
// out. Fleet boots race: a joiner is typically launched alongside the very
// seed it names, and that seed spends seconds building its scenario before
// it listens — one connection-refused must not kill the process.
func (a *Agent) JoinRetry(seeds []string, window time.Duration, logf func(string, ...any)) error {
	deadline := time.Now().Add(window)
	for attempt := 1; ; attempt++ {
		err := a.Join(seeds)
		if err == nil {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("cluster: join gave up after %v: %w", window, err)
		}
		if logf != nil && attempt == 1 {
			logf("gossip: seeds not yet reachable (%v); retrying for up to %v", err, window)
		}
		time.Sleep(time.Second)
	}
}

// ForceAlive re-asserts this member alive at the next incarnation —
// preemptively outranking any suspicion the fleet might hold at the
// current one (alive loses to suspect at equal incarnation, so a rejoiner
// bumps unconditionally rather than hoping its join seed already knew the
// rumor). Returns the new incarnation.
func (a *Agent) ForceAlive() uint64 {
	a.mu.Lock()
	self := a.members[a.self].Member
	self.Incarnation++
	self.State = StateAlive
	a.originateLocked(self)
	inc := self.Incarnation
	fire := a.takeChangeLocked()
	a.mu.Unlock()
	fire()
	return inc
}

// Subscribe registers a view-change callback and fires it once with the
// current view. Callbacks run synchronously on gossip goroutines — they
// must be fast and must not call back into the Agent while blocking.
func (a *Agent) Subscribe(fn func(View)) {
	a.mu.Lock()
	a.subs = append(a.subs, fn)
	v := a.viewLocked()
	a.mu.Unlock()
	fn(v)
}

// View snapshots the agent's current membership view.
func (a *Agent) View() View {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.viewLocked()
}

// Epoch is the agent's current membership epoch.
func (a *Agent) Epoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// Incarnation is the agent's own current incarnation number.
func (a *Agent) Incarnation() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.members[a.self].Incarnation
}

func (a *Agent) viewLocked() View {
	v := View{Epoch: a.epoch}
	ids := make([]string, 0, len(a.members))
	for id := range a.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := uint64(1469598103934665603) // FNV offset basis
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= uint64(0xff)
		h *= 1099511628211
	}
	for _, id := range ids {
		rec := a.members[id]
		v.Members = append(v.Members, rec.Member)
		mix(rec.ID)
		mix(rec.Addr)
		mix(rec.Role)
		mix(fmt.Sprintf("%d/%d", rec.Incarnation, rec.State))
	}
	v.Digest = h
	return v
}

// takeChangeLocked collects the pending change notification; the returned
// closure must be called after mu is released.
func (a *Agent) takeChangeLocked() func() {
	if !a.changed {
		return func() {}
	}
	a.changed = false
	v := a.viewLocked()
	subs := append([]func(View){}, a.subs...)
	return func() {
		for _, fn := range subs {
			fn(v)
		}
	}
}

func (a *Agent) bumpEpochLocked() uint64 {
	a.epoch++
	a.epochBumps++
	return a.epoch
}

// originateLocked records a locally-originated state change, stamps it
// with a fresh epoch, and queues it for dissemination.
func (a *Agent) originateLocked(m Member) {
	stamp := a.bumpEpochLocked()
	rec, ok := a.members[m.ID]
	if !ok {
		rec = &memberRecord{}
		a.members[m.ID] = rec
	}
	rec.Member = m
	rec.stamp = stamp
	if m.State == StateSuspect {
		rec.suspectAt = a.cfg.Now().Add(a.suspicionTimeoutLocked())
	}
	a.enqueueLocked(Update{Member: m, Epoch: stamp})
	a.changed = true
}

// supersedes is the SWIM precedence rule: a higher incarnation always
// wins; at equal incarnation the stronger claim (dead > suspect > alive)
// wins.
func supersedes(u Update, rec *memberRecord) bool {
	if u.Incarnation != rec.Incarnation {
		return u.Incarnation > rec.Incarnation
	}
	return u.State > rec.State
}

// applyLocked merges one rumor into the member table, returning whether it
// changed anything. Rumors about the agent itself that claim anything but
// alive are refuted on the spot: the agent bumps its incarnation past the
// rumor's and re-asserts itself, which overrides the rumor everywhere it
// spread.
func (a *Agent) applyLocked(u Update) bool {
	if u.ID == a.self {
		selfRec := a.members[a.self]
		if u.State != StateAlive && u.Incarnation >= selfRec.Incarnation {
			m := selfRec.Member
			m.Incarnation = u.Incarnation + 1
			m.State = StateAlive
			a.originateLocked(m)
			a.refutations++
			a.cfg.Logf("cluster: gossip %s refuted %s rumor at inc %d (now inc %d)",
				a.self, u.State, u.Incarnation, m.Incarnation)
			return true
		}
		if u.State == StateAlive && u.Incarnation > selfRec.Incarnation {
			// The wire remembers a newer self-assertion than we do (e.g. a
			// restart raced an old refutation): adopt it so our own future
			// refutations supersede it.
			selfRec.Incarnation = u.Incarnation
			a.changed = true
			return true
		}
		return false
	}
	rec, known := a.members[u.ID]
	if known && !supersedes(u, rec) {
		return false
	}
	if !known {
		rec = &memberRecord{}
		a.members[u.ID] = rec
		rec.Member = u.Member
	} else {
		prev := rec.State
		rec.Incarnation = u.Incarnation
		rec.State = u.State
		if u.Addr != "" {
			rec.Addr = u.Addr
		}
		if u.Role != "" {
			rec.Role = u.Role
		}
		if prev == StateDead && u.State == StateAlive {
			a.cfg.Logf("cluster: gossip %s re-admits %s at inc %d", a.self, u.ID, u.Incarnation)
		}
	}
	rec.stamp = u.Epoch
	if rec.State == StateSuspect {
		rec.suspectAt = a.cfg.Now().Add(a.suspicionTimeoutLocked())
	}
	if a.epoch+1 > u.Epoch {
		a.epoch++
	} else {
		a.epoch = u.Epoch
	}
	a.epochBumps++
	a.enqueueLocked(Update{Member: rec.Member, Epoch: rec.stamp})
	a.updatesApplied++
	a.changed = true
	return true
}

func (a *Agent) suspicionTimeoutLocked() time.Duration {
	if a.cfg.SuspicionTimeout > 0 {
		return a.cfg.SuspicionTimeout
	}
	n := len(a.members)
	lg := int(math.Ceil(math.Log2(float64(n + 1))))
	if lg < 1 {
		lg = 1
	}
	return time.Duration(suspicionMult*lg) * a.cfg.Interval
}

func (a *Agent) retransmitBudgetLocked() int {
	n := len(a.members)
	lg := int(math.Ceil(math.Log2(float64(n + 1))))
	if lg < 1 {
		lg = 1
	}
	return retransmitMult * lg
}

// enqueueLocked queues one rumor for piggybacked dissemination, replacing
// any queued rumor about the same member.
func (a *Agent) enqueueLocked(u Update) {
	budget := a.retransmitBudgetLocked()
	for _, q := range a.queue {
		if q.u.ID == u.ID {
			q.u = u
			q.left = budget
			return
		}
	}
	a.queue = append(a.queue, &queuedUpdate{u: u, left: budget})
}

// takePiggybackLocked selects up to maxPiggyback rumors, preferring the
// least-transmitted, and spends one transmission from each.
func (a *Agent) takePiggybackLocked() []Update {
	if len(a.queue) == 0 {
		return nil
	}
	sort.SliceStable(a.queue, func(i, j int) bool { return a.queue[i].left > a.queue[j].left })
	n := maxPiggyback
	if n > len(a.queue) {
		n = len(a.queue)
	}
	out := make([]Update, 0, n)
	for _, q := range a.queue[:n] {
		out = append(out, q.u)
		q.left--
	}
	kept := a.queue[:0]
	for _, q := range a.queue {
		if q.left > 0 {
			kept = append(kept, q)
		}
	}
	a.queue = kept
	return out
}

func (a *Agent) fullStateLocked() []Update {
	out := make([]Update, 0, len(a.members))
	for _, rec := range a.members {
		out = append(out, Update{Member: rec.Member, Epoch: rec.stamp})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// composeLocked builds an outgoing message: self snapshot, current epoch,
// and either the piggyback queue or the full table.
func (a *Agent) composeLocked(typ string, full bool) *GossipMsg {
	msg := &GossipMsg{
		Version: GossipVersion,
		Type:    typ,
		From:    a.members[a.self].Member,
		Epoch:   a.epoch,
		Sync:    full,
	}
	if full {
		msg.Updates = a.fullStateLocked()
	} else {
		msg.Updates = a.takePiggybackLocked()
	}
	return msg
}

// receiveLocked merges one inbound message: clocks merge, the sender is
// first-hand alive evidence, and every carried rumor applies.
func (a *Agent) receiveLocked(msg *GossipMsg) {
	if msg.Epoch > a.epoch {
		a.epoch = msg.Epoch
	}
	if msg.From.ID != a.self {
		from := msg.From
		from.State = StateAlive
		a.applyLocked(Update{Member: from, Epoch: msg.Epoch})
	}
	for _, u := range msg.Updates {
		a.applyLocked(u)
	}
	if msg.Sync {
		a.fullSyncs++
	}
}

// HandleMessage applies one inbound message and builds the reply. The
// ping-req relay probes the named target synchronously (bounded by
// ProbeTimeout) so the requester's single round trip carries the verdict.
func (a *Agent) HandleMessage(msg *GossipMsg) *GossipMsg {
	a.mu.Lock()
	a.receiveLocked(msg)
	var reply *GossipMsg
	var relayTo Member
	switch msg.Type {
	case gossipJoin:
		a.joinsServed++
		a.cfg.Logf("cluster: gossip %s admits %s (%s) via join", a.self, msg.From.ID, msg.From.Addr)
		reply = a.composeLocked(gossipAck, true)
	case gossipPingReq:
		relayTo = *msg.Target
	default: // ping, ack
		reply = a.composeLocked(gossipAck, msg.Sync)
	}
	fire := a.takeChangeLocked()
	a.mu.Unlock()
	fire()
	if reply != nil {
		return reply
	}

	// Relay leg of an indirect probe: ping the target on the requester's
	// behalf and report whether it answered.
	a.mu.Lock()
	ping := a.composeLocked(gossipPing, false)
	a.mu.Unlock()
	ok := false
	if resp, err := a.cfg.Transport.Exchange(relayTo.Addr, ping, a.cfg.ProbeTimeout); err == nil {
		ok = true
		a.mu.Lock()
		a.receiveLocked(resp)
		a.mu.Unlock()
	}
	a.mu.Lock()
	reply = a.composeLocked(gossipAck, false)
	reply.Ack = ok
	fire = a.takeChangeLocked()
	a.mu.Unlock()
	fire()
	return reply
}

// Handler mounts the agent at /v1/gossip.
func (a *Agent) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSONError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxGossipBody))
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, "read body: "+err.Error())
			return
		}
		msg, err := DecodeGossip(body)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, a.HandleMessage(msg))
	}
}

// TickOnce runs one SWIM protocol period: expire overdue suspicions to
// dead, direct-ping one member from the shuffled rotation, fall back to k
// indirect ping-reqs on a miss, and suspect the member if nobody reaches
// it. Exposed so tests drive the protocol without timing dependence.
func (a *Agent) TickOnce() {
	a.mu.Lock()
	a.tick++
	a.expireSuspicionsLocked()
	target, ok := a.nextProbeTargetLocked()
	if !ok {
		fire := a.takeChangeLocked()
		a.mu.Unlock()
		fire()
		return
	}
	full := a.tick%syncEvery == 0
	msg := a.composeLocked(gossipPing, full)
	relays := a.relayCandidatesLocked(target.ID)
	a.pingsSent++
	fire := a.takeChangeLocked()
	a.mu.Unlock()
	fire()

	if reply, err := a.cfg.Transport.Exchange(target.Addr, msg, a.cfg.ProbeTimeout); err == nil {
		a.mu.Lock()
		a.pingAcks++
		a.receiveLocked(reply)
		fire := a.takeChangeLocked()
		a.mu.Unlock()
		fire()
		return
	}

	a.mu.Lock()
	a.pingTimeouts++
	reqs := make([]*GossipMsg, len(relays))
	for i := range relays {
		req := a.composeLocked(gossipPingReq, false)
		t := target
		req.Target = &t
		reqs[i] = req
		a.indirectReqs++
	}
	fire = a.takeChangeLocked()
	a.mu.Unlock()
	fire()

	acked := false
	if len(relays) > 0 {
		var wg sync.WaitGroup
		replies := make([]*GossipMsg, len(relays))
		for i := range relays {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// The relay's nested ping rides inside this round trip, so
				// allow both legs.
				if r, err := a.cfg.Transport.Exchange(relays[i].Addr, reqs[i], 2*a.cfg.ProbeTimeout); err == nil {
					replies[i] = r
				}
			}(i)
		}
		wg.Wait()
		a.mu.Lock()
		for _, r := range replies {
			if r == nil {
				continue
			}
			a.receiveLocked(r)
			if r.Ack {
				acked = true
				a.indirectAcks++
			}
		}
		fire = a.takeChangeLocked()
		a.mu.Unlock()
		fire()
	}
	if acked {
		return
	}

	// Nobody reached it: suspect, unless something newer already landed.
	a.mu.Lock()
	if rec, known := a.members[target.ID]; known &&
		rec.State == StateAlive && rec.Incarnation == target.Incarnation {
		m := rec.Member
		m.State = StateSuspect
		a.originateLocked(m)
		a.suspectsDeclared++
		a.cfg.Logf("cluster: gossip %s suspects %s at inc %d", a.self, m.ID, m.Incarnation)
	}
	fire = a.takeChangeLocked()
	a.mu.Unlock()
	fire()
}

// expireSuspicionsLocked confirms overdue suspects dead.
func (a *Agent) expireSuspicionsLocked() {
	now := a.cfg.Now()
	for _, rec := range a.members {
		if rec.ID == a.self || rec.State != StateSuspect || now.Before(rec.suspectAt) {
			continue
		}
		m := rec.Member
		m.State = StateDead
		a.originateLocked(m)
		a.deadConfirmed++
		a.cfg.Logf("cluster: gossip %s confirms %s dead at inc %d", a.self, m.ID, m.Incarnation)
	}
}

// nextProbeTargetLocked walks a shuffled rotation over the non-dead,
// non-self members (SWIM's round-robin randomized probe order: every
// member is probed once per rotation, in an order no two agents share).
func (a *Agent) nextProbeTargetLocked() (Member, bool) {
	for tries := 0; tries < 2; tries++ {
		for a.orderAt < len(a.order) {
			id := a.order[a.orderAt]
			a.orderAt++
			rec, known := a.members[id]
			if known && rec.State != StateDead && rec.Addr != "" {
				return rec.Member, true
			}
		}
		a.order = a.order[:0]
		for id, rec := range a.members {
			if id != a.self && rec.State != StateDead && rec.Addr != "" {
				a.order = append(a.order, id)
			}
		}
		sort.Strings(a.order)
		a.rng.Shuffle(len(a.order), func(i, j int) { a.order[i], a.order[j] = a.order[j], a.order[i] })
		a.orderAt = 0
		if len(a.order) == 0 {
			return Member{}, false
		}
	}
	return Member{}, false
}

// relayCandidatesLocked picks up to k random alive members (excluding self
// and the probe target) to relay an indirect ping-req.
func (a *Agent) relayCandidatesLocked(targetID string) []Member {
	var pool []Member
	for id, rec := range a.members {
		if id == a.self || id == targetID || rec.State != StateAlive || rec.Addr == "" {
			continue
		}
		pool = append(pool, rec.Member)
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].ID < pool[j].ID })
	a.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > a.cfg.IndirectPeers {
		pool = pool[:a.cfg.IndirectPeers]
	}
	return pool
}

// Run drives protocol periods until ctx ends, jittering each period ±25%
// so fleet probes spread instead of firing in lockstep.
func (a *Agent) Run(ctx context.Context) {
	for {
		a.mu.Lock()
		jitter := time.Duration(a.rng.Int63n(int64(a.cfg.Interval)/2+1)) - a.cfg.Interval/4
		a.mu.Unlock()
		select {
		case <-ctx.Done():
			return
		case <-time.After(a.cfg.Interval + jitter):
			a.TickOnce()
		}
	}
}

// MembershipStats snapshots the agent for /v1/stats.
func (a *Agent) MembershipStats() *serve.MembershipStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := &serve.MembershipStats{
		Epoch:            a.epoch,
		Digest:           fmt.Sprintf("%016x", a.viewLocked().Digest),
		Incarnation:      a.members[a.self].Incarnation,
		PingsSent:        a.pingsSent,
		PingAcks:         a.pingAcks,
		PingTimeouts:     a.pingTimeouts,
		IndirectReqs:     a.indirectReqs,
		IndirectAcks:     a.indirectAcks,
		SuspectsDeclared: a.suspectsDeclared,
		Refutations:      a.refutations,
		DeadConfirmed:    a.deadConfirmed,
		UpdatesApplied:   a.updatesApplied,
		FullSyncs:        a.fullSyncs,
		JoinsSent:        a.joinsSent,
		JoinsServed:      a.joinsServed,
	}
	for _, rec := range a.members {
		st.Members++
		switch rec.State {
		case StateAlive:
			st.Alive++
		case StateSuspect:
			st.Suspect++
		case StateDead:
			st.Dead++
		}
	}
	return st
}
