package cluster

import (
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
	after, err := NewRing(64, []string{"s0", "s1", "s2", "s3"})
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
	after, err := NewRing(64, []string{"s0", "s2"})
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
	back, err := NewRing(64, []string{"s0", "s2", "s1"})
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
