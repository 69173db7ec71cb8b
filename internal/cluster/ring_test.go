package cluster

import (
	"encoding/json"
	"math"
	"testing"
)

const testKeys = 4096 // key population for the ring property tests

// TestRingDeterministicAndOrderFree: two rings over the same member set —
// built in different insertion orders — must resolve every key identically,
// and rebuilding must be bit-stable.
func TestRingDeterministicAndOrderFree(t *testing.T) {
	a, err := NewRing(64, []string{"s0", "s1", "s2"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(64, []string{"s2", "s0", "s1"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewRing(64, []string{"s1", "s2", "s0"})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < testKeys; k++ {
		oa, ob, oc := a.Owner(k), b.Owner(k), c.Owner(k)
		if oa != ob || oa != oc {
			t.Fatalf("key %d resolves differently per insertion order: %q %q %q", k, oa, ob, oc)
		}
		if oa == "" {
			t.Fatalf("key %d unowned on a 3-member ring", k)
		}
	}
}

// TestRingRejectsBadMembers: empty and duplicate ids must fail construction.
func TestRingRejectsBadMembers(t *testing.T) {
	if _, err := NewRing(8, []string{"a", ""}); err == nil {
		t.Fatal("empty node id accepted")
	}
	if _, err := NewRing(8, []string{"a", "b", "a"}); err == nil {
		t.Fatal("duplicate node id accepted")
	}
}

// TestRingMinimalDisruptionOnJoin: adding a member may move keys only ONTO
// the new member; every key that stays with an old member keeps its owner.
func TestRingMinimalDisruptionOnJoin(t *testing.T) {
	before, err := NewRing(64, []string{"s0", "s1", "s2"})
	if err != nil {
		t.Fatal(err)
	}
	after, err := before.WithNode("s3")
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for k := 0; k < testKeys; k++ {
		ob, oa := before.Owner(k), after.Owner(k)
		if ob == oa {
			continue
		}
		if oa != "s3" {
			t.Fatalf("key %d moved %q→%q on join of s3 (may only move onto s3)", k, ob, oa)
		}
		moved++
	}
	// The joiner should take roughly its fair share (1/4), not nothing and
	// not everything.
	if moved == 0 || moved > testKeys/2 {
		t.Fatalf("join moved %d/%d keys; want a roughly fair, minimal share", moved, testKeys)
	}
}

// TestRingMinimalDisruptionOnLeave: removing a member may move only the
// departed member's keys; survivors' keys must not reshuffle among them.
func TestRingMinimalDisruptionOnLeave(t *testing.T) {
	before, err := NewRing(64, []string{"s0", "s1", "s2"})
	if err != nil {
		t.Fatal(err)
	}
	after, err := before.WithoutNode("s1")
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < testKeys; k++ {
		ob, oa := before.Owner(k), after.Owner(k)
		if ob == "s1" {
			if oa != "s0" && oa != "s2" {
				t.Fatalf("key %d orphaned: %q", k, oa)
			}
			continue
		}
		if ob != oa {
			t.Fatalf("key %d reshuffled %q→%q though its owner survived", k, ob, oa)
		}
	}
	// Leave then rejoin must restore the original assignment exactly.
	back, err := after.WithNode("s1")
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < testKeys; k++ {
		if before.Owner(k) != back.Owner(k) {
			t.Fatalf("key %d not restored after leave+rejoin", k)
		}
	}
}

// TestRingBalanceAndOwnedFraction: with 64 vnodes each, every member owns a
// non-degenerate share; the OwnedFraction arithmetic must sum to 1 and
// track the observed key distribution.
func TestRingBalanceAndOwnedFraction(t *testing.T) {
	nodes := []string{"s0", "s1", "s2"}
	r, err := NewRing(64, nodes)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for k := 0; k < testKeys; k++ {
		counts[r.Owner(k)]++
	}
	var fracSum float64
	for _, n := range nodes {
		frac := r.OwnedFraction(n)
		fracSum += frac
		observed := float64(counts[n]) / testKeys
		if frac < 0.05 || frac > 0.95 {
			t.Fatalf("node %s owns fraction %.3f; degenerate ring", n, frac)
		}
		if math.Abs(frac-observed) > 0.1 {
			t.Fatalf("node %s: owned fraction %.3f vs observed key share %.3f", n, frac, observed)
		}
	}
	if math.Abs(fracSum-1) > 1e-9 {
		t.Fatalf("owned fractions sum to %v, want 1", fracSum)
	}
	if f := r.OwnedFraction("absent"); f != 0 {
		t.Fatalf("absent node owns %v", f)
	}
	// A fleet's first shard is a lone member: it owns the whole space.
	lone, err := NewRing(64, []string{"s0"})
	if err != nil {
		t.Fatal(err)
	}
	if f := lone.OwnedFraction("s0"); f != 1 {
		t.Fatalf("lone member owns %v, want 1", f)
	}
}

// TestOwnedClustersMatchesOwner: the enumeration and the resolver must
// agree exactly.
func TestOwnedClustersMatchesOwner(t *testing.T) {
	r, err := NewRing(32, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	const total = 257
	seen := map[int]bool{}
	for _, n := range []string{"a", "b"} {
		for _, k := range r.OwnedClusters(n, total) {
			if r.Owner(k) != n {
				t.Fatalf("OwnedClusters(%s) lists %d but Owner says %q", n, k, r.Owner(k))
			}
			if seen[k] {
				t.Fatalf("cluster %d owned twice", k)
			}
			seen[k] = true
		}
	}
	if len(seen) != total {
		t.Fatalf("enumeration covered %d/%d clusters", len(seen), total)
	}
}

// TestShardMapRoundtrip: serialize → parse → rebuild must reproduce the
// exact routing ring over the live members.
func TestShardMapRoundtrip(t *testing.T) {
	m := ShardMap{
		Version: ShardMapVersion,
		VNodes:  64,
		Shards: []ShardInfo{
			{ID: "s0", Addr: "127.0.0.1:1", Alive: true, OwnedFraction: 0.5, RingPositions: 64},
			{ID: "s1", Addr: "127.0.0.1:2", Alive: false},
			{ID: "s2", Addr: "127.0.0.1:3", Alive: true, OwnedFraction: 0.5, RingPositions: 64},
		},
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseShardMap(blob)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := parsed.Ring()
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewRing(64, []string{"s0", "s2"})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < testKeys; k++ {
		if ring.Owner(k) != want.Owner(k) {
			t.Fatalf("key %d: reconstructed ring resolves %q, want %q", k, ring.Owner(k), want.Owner(k))
		}
	}
}

// TestShardMapValidate rejects each class of structural damage.
func TestShardMapValidate(t *testing.T) {
	valid := func() ShardMap {
		return ShardMap{Version: ShardMapVersion, VNodes: 64,
			Shards: []ShardInfo{{ID: "a", Addr: "x:1", Alive: true, OwnedFraction: 1, RingPositions: 64}}}
	}
	cases := []struct {
		name   string
		mutate func(*ShardMap)
	}{
		{"bad version", func(m *ShardMap) { m.Version = 9 }},
		{"zero vnodes", func(m *ShardMap) { m.VNodes = 0 }},
		{"huge vnodes", func(m *ShardMap) { m.VNodes = 1 << 20 }},
		{"empty id", func(m *ShardMap) { m.Shards[0].ID = "" }},
		{"dup id", func(m *ShardMap) { m.Shards = append(m.Shards, m.Shards[0]) }},
		{"nan fraction", func(m *ShardMap) { m.Shards[0].OwnedFraction = math.NaN() }},
		{"fraction above 1", func(m *ShardMap) { m.Shards[0].OwnedFraction = 1.5 }},
		{"negative positions", func(m *ShardMap) { m.Shards[0].RingPositions = -1 }},
	}
	for _, tc := range cases {
		m := valid()
		tc.mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	m := valid()
	if err := m.Validate(); err != nil {
		t.Fatalf("valid map rejected: %v", err)
	}
}
