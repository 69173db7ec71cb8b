package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// In-memory gossip fabric: agents registered by address, every exchange
// marshalled through the real wire format (so unit tests cover the JSON
// encoding on every hop), with per-directed-link blackholes.
// ---------------------------------------------------------------------------

type memNet struct {
	mu      sync.Mutex
	agents  map[string]*Agent
	blocked map[string]bool // "fromID→toAddr" directed blackholes
}

func newMemNet() *memNet {
	return &memNet{agents: map[string]*Agent{}, blocked: map[string]bool{}}
}

func (n *memNet) register(addr string, a *Agent) {
	n.mu.Lock()
	n.agents[addr] = a
	n.mu.Unlock()
}

func (n *memNet) block(fromID, toAddr string) {
	n.mu.Lock()
	n.blocked[fromID+"→"+toAddr] = true
	n.mu.Unlock()
}

func (n *memNet) transport(selfID string) Transport {
	return memTransport{net: n, self: selfID}
}

type memTransport struct {
	net  *memNet
	self string
}

func (t memTransport) Exchange(addr string, msg *GossipMsg, _ time.Duration) (*GossipMsg, error) {
	t.net.mu.Lock()
	peer := t.net.agents[addr]
	dropped := t.net.blocked[t.self+"→"+addr]
	t.net.mu.Unlock()
	if dropped {
		return nil, fmt.Errorf("memnet: link %s→%s blackholed", t.self, addr)
	}
	if peer == nil {
		return nil, fmt.Errorf("memnet: no agent at %s", addr)
	}
	// Round-trip both directions through the real wire format.
	blob, err := json.Marshal(msg)
	if err != nil {
		return nil, err
	}
	decoded, err := DecodeGossip(blob)
	if err != nil {
		return nil, fmt.Errorf("memnet: outbound message invalid: %w", err)
	}
	reply := peer.HandleMessage(decoded)
	blob, err = json.Marshal(reply)
	if err != nil {
		return nil, err
	}
	return DecodeGossip(blob)
}

// fakeClock is a mutex-guarded manual clock for suspicion-timeout tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func memAgent(t *testing.T, net *memNet, id string, seed int64, now func() time.Time) *Agent {
	t.Helper()
	cfg := GossipConfig{
		Interval:         40 * time.Millisecond,
		SuspicionTimeout: 500 * time.Millisecond,
		Seed:             seed,
		Transport:        net.transport(id),
	}
	if now != nil {
		cfg.Now = now
	}
	a, err := NewAgent(Member{ID: id, Addr: id, Role: RoleShard}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.register(id, a)
	return a
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

// TestGossipDecodeBounds: every malformed class is rejected with a specific
// error, and a well-formed message round-trips field-for-field.
func TestGossipDecodeBounds(t *testing.T) {
	valid := func() *GossipMsg {
		return &GossipMsg{
			Version: GossipVersion,
			Type:    "ping",
			From:    Member{ID: "s0", Addr: "127.0.0.1:1", Role: RoleShard, Incarnation: 3},
			Updates: []Update{{Member: Member{ID: "s1", Addr: "127.0.0.1:2", Role: RoleShard, State: StateSuspect}, Epoch: 9}},
			Epoch:   12,
		}
	}
	blob, err := json.Marshal(valid())
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGossip(blob)
	if err != nil {
		t.Fatalf("valid message rejected: %v", err)
	}
	if got.From.ID != "s0" || got.Epoch != 12 || len(got.Updates) != 1 ||
		got.Updates[0].State != StateSuspect || got.Updates[0].Epoch != 9 {
		t.Fatalf("round trip mangled message: %+v", got)
	}

	cases := []struct {
		name   string
		mutate func(*GossipMsg)
		want   string
	}{
		{"bad version", func(m *GossipMsg) { m.Version = 2 }, "version"},
		{"unknown type", func(m *GossipMsg) { m.Type = "gossip" }, "type"},
		{"empty from id", func(m *GossipMsg) { m.From.ID = "" }, "id length"},
		{"long from id", func(m *GossipMsg) { m.From.ID = strings.Repeat("x", maxGossipIDLen+1) }, "id length"},
		{"long addr", func(m *GossipMsg) { m.From.Addr = strings.Repeat("a", maxGossipAddrLen+1) }, "addr length"},
		{"bad role", func(m *GossipMsg) { m.From.Role = "observer" }, "role"},
		{"bad state", func(m *GossipMsg) { m.From.State = StateDead + 1 }, "state"},
		{"ping-req without target", func(m *GossipMsg) { m.Type = gossipPingReq }, "without target"},
		{"ping-req target without addr", func(m *GossipMsg) {
			m.Type = gossipPingReq
			m.Target = &Member{ID: "s2", Role: RoleShard}
		}, "without addr"},
		{"bad update", func(m *GossipMsg) { m.Updates[0].Role = "nope" }, "update 0"},
	}
	for _, tc := range cases {
		m := valid()
		tc.mutate(m)
		blob, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeGossip(blob); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	if _, err := DecodeGossip([]byte(`{not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := DecodeGossip(bytes.Repeat([]byte{'x'}, maxGossipBody+1)); err == nil {
		t.Error("oversized body accepted")
	}
	// Too many updates.
	m := valid()
	m.Updates = make([]Update, maxGossipUpdates+1)
	for i := range m.Updates {
		m.Updates[i] = Update{Member: Member{ID: "u", Addr: "a:1", Role: RoleShard}}
	}
	blob, err = json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeGossip(blob); err == nil {
		t.Error("update flood accepted")
	}
}

// ---------------------------------------------------------------------------
// Precedence and refutation
// ---------------------------------------------------------------------------

// TestGossipSupersedes pins the SWIM precedence rule rumor-by-rumor.
func TestGossipSupersedes(t *testing.T) {
	cases := []struct {
		name         string
		haveInc      uint64
		haveState    MemberState
		rumorInc     uint64
		rumorState   MemberState
		shouldAccept bool
	}{
		{"higher inc alive beats dead", 3, StateDead, 4, StateAlive, true},
		{"higher inc suspect beats alive", 1, StateAlive, 2, StateSuspect, true},
		{"lower inc dead loses to alive", 5, StateAlive, 4, StateDead, false},
		{"equal inc dead beats suspect", 2, StateSuspect, 2, StateDead, true},
		{"equal inc suspect beats alive", 2, StateAlive, 2, StateSuspect, true},
		{"equal inc alive loses to suspect", 2, StateSuspect, 2, StateAlive, false},
		{"equal inc equal state is a no-op", 2, StateSuspect, 2, StateSuspect, false},
	}
	for _, tc := range cases {
		rec := &memberRecord{Member: Member{ID: "m", Incarnation: tc.haveInc, State: tc.haveState}}
		u := Update{Member: Member{ID: "m", Incarnation: tc.rumorInc, State: tc.rumorState}}
		if got := supersedes(u, rec); got != tc.shouldAccept {
			t.Errorf("%s: supersedes=%v, want %v", tc.name, got, tc.shouldAccept)
		}
	}
}

// TestGossipSelfRefutation: any non-alive rumor about the agent itself is
// refuted on the spot at a higher incarnation, and the refutation wins
// everywhere the rumor could have spread.
func TestGossipSelfRefutation(t *testing.T) {
	net := newMemNet()
	a := memAgent(t, net, "s0", 1, nil)

	ping := &GossipMsg{
		Version: GossipVersion, Type: gossipPing,
		From:    Member{ID: "s1", Addr: "s1", Role: RoleShard},
		Updates: []Update{{Member: Member{ID: "s0", Addr: "s0", Role: RoleShard, State: StateSuspect}, Epoch: 5}},
		Epoch:   5,
	}
	reply := a.HandleMessage(ping)
	if inc := a.Incarnation(); inc != 1 {
		t.Fatalf("suspect rumor at inc 0: incarnation %d, want 1 (refuted)", inc)
	}
	if m, _ := a.View().Find("s0"); m.State != StateAlive {
		t.Fatalf("self state %v after refutation, want alive", m.State)
	}
	// The refutation rides back on the very reply to the rumor's carrier.
	found := false
	for _, u := range reply.Updates {
		if u.ID == "s0" && u.State == StateAlive && u.Incarnation == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("reply does not carry the refutation: %+v", reply.Updates)
	}

	// A dead rumor at a far-future incarnation is outranked the same way.
	obituary := &GossipMsg{
		Version: GossipVersion, Type: gossipPing,
		From:    Member{ID: "s1", Addr: "s1", Role: RoleShard},
		Updates: []Update{{Member: Member{ID: "s0", Addr: "s0", Role: RoleShard, Incarnation: 7, State: StateDead}, Epoch: 9}},
		Epoch:   9,
	}
	a.HandleMessage(obituary)
	if inc := a.Incarnation(); inc != 8 {
		t.Fatalf("dead rumor at inc 7: incarnation %d, want 8", inc)
	}
	if st := a.MembershipStats(); st.Refutations != 2 {
		t.Fatalf("refutations counter %d, want 2", st.Refutations)
	}
}

// TestGossipForceAlive: the rejoin bump is monotone and immediately visible.
func TestGossipForceAlive(t *testing.T) {
	net := newMemNet()
	a := memAgent(t, net, "s0", 1, nil)
	if inc := a.ForceAlive(); inc != 1 {
		t.Fatalf("first ForceAlive returned %d, want 1", inc)
	}
	if inc := a.ForceAlive(); inc != 2 {
		t.Fatalf("second ForceAlive returned %d, want 2", inc)
	}
	if a.Incarnation() != 2 {
		t.Fatalf("incarnation %d, want 2", a.Incarnation())
	}
}

// ---------------------------------------------------------------------------
// Failure detection
// ---------------------------------------------------------------------------

// TestGossipSuspicionExpiry: an unreachable member moves alive → suspect on
// the failed probe and suspect → dead once the (injected) clock passes the
// suspicion deadline; dead members leave the probe rotation.
func TestGossipSuspicionExpiry(t *testing.T) {
	clock := newFakeClock()
	net := newMemNet()
	a := memAgent(t, net, "s0", 1, clock.Now)
	// "ghost" is never registered: every exchange to it fails.
	a.Seed([]Member{{ID: "ghost", Addr: "ghost", Role: RoleShard}})

	a.TickOnce()
	m, ok := a.View().Find("ghost")
	if !ok || m.State != StateSuspect {
		t.Fatalf("after failed probe: %+v (found=%v), want suspect", m, ok)
	}
	st := a.MembershipStats()
	if st.SuspectsDeclared != 1 || st.PingTimeouts != 1 {
		t.Fatalf("suspects=%d timeouts=%d, want 1 and 1", st.SuspectsDeclared, st.PingTimeouts)
	}

	// Before the deadline the suspect survives further ticks.
	clock.Advance(200 * time.Millisecond)
	a.TickOnce()
	if m, _ := a.View().Find("ghost"); m.State == StateDead {
		t.Fatal("suspect confirmed dead before its deadline")
	}

	clock.Advance(400 * time.Millisecond) // 600ms total > 500ms window
	a.TickOnce()
	if m, _ := a.View().Find("ghost"); m.State != StateDead {
		t.Fatalf("suspect state %v after deadline, want dead", m.State)
	}
	if st := a.MembershipStats(); st.DeadConfirmed != 1 {
		t.Fatalf("deadConfirmed=%d, want 1", st.DeadConfirmed)
	}

	// Dead members are not probed again.
	before := a.MembershipStats().PingsSent
	a.TickOnce()
	a.TickOnce()
	if after := a.MembershipStats().PingsSent; after != before {
		t.Fatalf("dead member still probed: pings %d → %d", before, after)
	}
}

// TestGossipIndirectProbeSavesTarget: with the direct link cut but a relay
// path intact, the k-indirect ping-req keeps the target alive — the
// asymmetric-partition property at protocol scale.
func TestGossipIndirectProbeSavesTarget(t *testing.T) {
	net := newMemNet()
	a := memAgent(t, net, "a", 1, nil)
	memAgent(t, net, "b", 2, nil)
	memAgent(t, net, "c", 3, nil)
	members := []Member{
		{ID: "b", Addr: "b", Role: RoleShard},
		{ID: "c", Addr: "c", Role: RoleShard},
	}
	a.Seed(members)
	net.block("a", "b") // a's direct pings to b fail; c can still reach b

	for i := 0; i < 6; i++ { // ≥2 full rotations: b is probed at least twice
		a.TickOnce()
	}
	st := a.MembershipStats()
	if st.PingTimeouts < 1 {
		t.Fatalf("blocked link produced no direct-ping misses: %+v", st)
	}
	if st.IndirectAcks < 1 {
		t.Fatalf("no indirect ack saved the target: %+v", st)
	}
	if st.SuspectsDeclared != 0 {
		t.Fatalf("indirectly-reachable member was suspected %d times", st.SuspectsDeclared)
	}
	if m, _ := a.View().Find("b"); m.State != StateAlive {
		t.Fatalf("b state %v, want alive", m.State)
	}
}

// ---------------------------------------------------------------------------
// Dissemination and convergence
// ---------------------------------------------------------------------------

// TestGossipPiggybackBudget: no message carries more than maxPiggyback
// rumors, and the retransmit budget drains the queue to empty.
func TestGossipPiggybackBudget(t *testing.T) {
	net := newMemNet()
	a := memAgent(t, net, "s0", 1, nil)
	var many []Member
	for i := 0; i < 20; i++ {
		many = append(many, Member{ID: fmt.Sprintf("m%02d", i), Addr: fmt.Sprintf("m%02d", i), Role: RoleShard})
	}
	a.Seed(many) // 20 queued rumors

	ping := &GossipMsg{
		Version: GossipVersion, Type: gossipPing,
		From: Member{ID: "px", Addr: "px", Role: RoleShard},
	}
	drained := false
	for i := 0; i < 300; i++ {
		reply := a.HandleMessage(ping)
		if reply.Type != gossipAck {
			t.Fatalf("ping answered with %q", reply.Type)
		}
		if len(reply.Updates) > 8 {
			t.Fatalf("reply carries %d updates, budget is 8", len(reply.Updates))
		}
		if len(reply.Updates) == 0 {
			drained = true
			break
		}
	}
	if !drained {
		t.Fatal("piggyback queue never drained; retransmit budget is not being spent")
	}
}

// TestGossipJoinAndConvergence: members joining through one seed converge to
// a single (epoch, digest) across the whole fabric; a later state change
// (a ForceAlive bump) re-converges everyone on a strictly higher epoch.
func TestGossipJoinAndConvergence(t *testing.T) {
	net := newMemNet()
	ids := []string{"m0", "m1", "m2", "m3"}
	agents := make([]*Agent, len(ids))
	for i, id := range ids {
		agents[i] = memAgent(t, net, id, int64(i+1), nil)
	}
	for _, a := range agents[1:] {
		if err := a.Join([]string{"m0"}); err != nil {
			t.Fatal(err)
		}
	}
	if st := agents[0].MembershipStats(); st.JoinsServed != 3 {
		t.Fatalf("seed served %d joins, want 3", st.JoinsServed)
	}

	converge := func(label string) uint64 {
		t.Helper()
		for round := 0; round < 400; round++ {
			views := make([]View, len(agents))
			all := true
			for i, a := range agents {
				views[i] = a.View()
				if len(views[i].Members) != len(ids) {
					all = false
				}
			}
			if all && ViewsConverged(views) {
				return views[0].Epoch
			}
			for _, a := range agents {
				a.TickOnce()
			}
		}
		t.Fatalf("%s: views did not converge within 400 rounds", label)
		return 0
	}

	epoch1 := converge("post-join")
	for _, a := range agents {
		for _, m := range a.View().Members {
			if m.State != StateAlive {
				t.Fatalf("converged view holds %s in state %v", m.ID, m.State)
			}
		}
	}

	agents[3].ForceAlive()
	epoch2 := converge("post-bump")
	if epoch2 <= epoch1 {
		t.Fatalf("epoch did not advance across a state change: %d → %d", epoch1, epoch2)
	}
	for _, a := range agents {
		m, ok := a.View().Find("m3")
		if !ok || m.Incarnation != 1 || m.State != StateAlive {
			t.Fatalf("agent %s sees m3 as %+v, want alive at inc 1", a.self, m)
		}
	}
}

// TestGossipSeedIgnoresJunk: seeding skips self and invalid entries rather
// than corrupting the table.
func TestGossipSeedIgnoresJunk(t *testing.T) {
	net := newMemNet()
	a := memAgent(t, net, "s0", 1, nil)
	a.Seed([]Member{
		{ID: "s0", Addr: "elsewhere", Role: RoleShard}, // self: ignored
		{ID: "", Addr: "x", Role: RoleShard},           // invalid: ignored
		{ID: "ok", Addr: "ok:1", Role: RoleShard},
	})
	v := a.View()
	if len(v.Members) != 2 {
		t.Fatalf("table has %d members, want 2 (self + ok): %+v", len(v.Members), v.Members)
	}
	if m, _ := v.Find("s0"); m.Addr != "s0" {
		t.Fatalf("seed overwrote self addr: %q", m.Addr)
	}
}

// ---------------------------------------------------------------------------
// Flag parsing (satellites)
// ---------------------------------------------------------------------------

// TestParseSeeds covers the -join flag form: bare addresses, no ids.
func TestParseSeeds(t *testing.T) {
	got, err := ParseSeeds(" h:1, h:2 ,h:3")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "h:1" || got[2] != "h:3" {
		t.Fatalf("parsed %v", got)
	}
	for _, bad := range []string{"", " , ", "id=h:1", "h:1,h:1"} {
		if _, err := ParseSeeds(bad); err == nil {
			t.Errorf("ParseSeeds(%q) accepted", bad)
		}
	}
}

// TestAdvertiseAddr: the address peers dial a node back at — an explicit
// -advertise wins, a host-qualified -addr is used, a bare :port is an error.
func TestAdvertiseAddr(t *testing.T) {
	for _, tc := range []struct {
		advertise, listen, want string
	}{
		{"10.0.0.5:8080", ":8080", "10.0.0.5:8080"},
		{"10.0.0.5:9000", "127.0.0.1:8080", "10.0.0.5:9000"},
		{"", "127.0.0.1:8080", "127.0.0.1:8080"},
		{"", "pi-3.local:8080", "pi-3.local:8080"},
		{"", ":8080", ""},
		{"", "8080", ""},
	} {
		got, err := AdvertiseAddr(tc.advertise, tc.listen)
		if tc.want == "" {
			if err == nil {
				t.Errorf("AdvertiseAddr(%q, %q) = %q, want an error", tc.advertise, tc.listen, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("AdvertiseAddr(%q, %q) = %q, %v; want %q", tc.advertise, tc.listen, got, err, tc.want)
		}
	}
}

// TestRouterProbeJitter (satellite): probe phases are deterministic per
// (seed, shard), land inside the probe window, and actually spread — a fleet
// must not probe in lockstep.
func TestRouterProbeJitter(t *testing.T) {
	shards := make([]Shard, 8)
	for i := range shards {
		shards[i] = Shard{ID: fmt.Sprintf("s%d", i), Addr: fmt.Sprintf("127.0.0.1:%d", 9000+i)}
	}
	mk := func(seed int64) *Router {
		r, err := NewRouter(testStore(t), shards, RouterConfig{
			ProbeEvery:      250 * time.Millisecond,
			ProbeJitterSeed: seed,
			Logf:            func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	offsets := func(r *Router) map[string]time.Duration {
		out := make(map[string]time.Duration, len(shards))
		for _, s := range shards {
			out[s.ID] = r.ProbeOffset(s.ID)
		}
		return out
	}
	offA, offB := offsets(mk(7)), offsets(mk(7))
	if len(offA) != len(shards) {
		t.Fatalf("offsets cover %d shards, want %d", len(offA), len(shards))
	}
	distinct := map[time.Duration]bool{}
	for id, off := range offA {
		if off < 0 || off >= 250*time.Millisecond {
			t.Fatalf("shard %s offset %v outside [0, ProbeEvery)", id, off)
		}
		if offB[id] != off {
			t.Fatalf("same seed, different phase for %s: %v vs %v", id, off, offB[id])
		}
		distinct[off] = true
	}
	if len(distinct) < len(shards)/2 {
		t.Fatalf("only %d distinct phases across %d shards; probes fire in lockstep", len(distinct), len(shards))
	}
	// A different seed reschedules the fleet.
	moved := 0
	for id, off := range offsets(mk(8)) {
		if off != offA[id] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("changing ProbeJitterSeed moved no phase")
	}
}
