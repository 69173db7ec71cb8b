package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/rl"
)

// fastCRL builds a small CRL over the shared store fixture with an
// inexpensive DQN, optionally tweaking the config first.
func fastCRL(t *testing.T, mutate func(*CRLConfig)) *CRL {
	t.Helper()
	p, store := storeFixture(t, 6, 2, 10)
	cfg := DefaultCRLConfig()
	cfg.Episodes = 40
	cfg.DQN = rl.DQNConfig{
		Hidden:      []int{16},
		Epsilon:     rl.EpsilonSchedule{Start: 1, End: 0.05, DecaySteps: 200},
		WarmupSteps: 16,
		BatchSize:   8,
		Seed:        7,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	crl, err := NewCRL(p, store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return crl
}

func TestPlateaued(t *testing.T) {
	flat := []float64{1, 1, 1, 1, 1, 1}
	if !plateaued(flat, 3, 0.01) {
		t.Fatal("flat returns should plateau")
	}
	rising := []float64{1, 1, 1, 2, 2, 2}
	if plateaued(rising, 3, 0.01) {
		t.Fatal("doubling returns should not plateau")
	}
	// Fewer than 2·window rewards can never plateau.
	if plateaued([]float64{1, 1, 1, 1, 1}, 3, 0.01) {
		t.Fatal("five rewards cannot fill two windows of three")
	}
	// Near-zero baseline: the epsilon denominator guard must not divide by 0.
	if plateaued([]float64{0, 0, 0, 1, 1, 1}, 3, 0.01) {
		t.Fatal("improvement from zero should not plateau")
	}
}

// TestTrainEarlyStopNeverBeforeFloor: with a plateau detector armed from the
// very first comparable window, the MinEpisodes floor must still hold — and
// when the run does stop early, the result says so.
func TestTrainEarlyStopNeverBeforeFloor(t *testing.T) {
	const floor = 12
	crl := fastCRL(t, func(cfg *CRLConfig) {
		cfg.StopWindow = 2
		cfg.StopEpsilon = 10 // everything counts as a plateau
		cfg.MinEpisodes = floor
	})
	res, err := crl.Train()
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != rl.StopPlateau {
		t.Fatalf("stop reason = %q, want plateau with eps=10", res.StopReason)
	}
	if res.Episodes < floor {
		t.Fatalf("stopped after %d episodes, floor is %d", res.Episodes, floor)
	}
	if res.Episodes != floor {
		t.Fatalf("an always-true plateau should fire exactly at the floor, got %d", res.Episodes)
	}
}

// TestTrainEarlyStopDisabled: StopWindow = 0 spends the whole budget.
func TestTrainEarlyStopDisabled(t *testing.T) {
	crl := fastCRL(t, nil)
	res, err := crl.Train()
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != rl.StopBudget || res.Episodes != 40 {
		t.Fatalf("no-stop run: %d episodes, reason %q; want 40/budget",
			res.Episodes, res.StopReason)
	}
}

// TestWarmStartFrom checks the transfer contract: an untrained donor is
// refused, a trained donor's policy carries over exactly, and the provenance
// survives snapshot round trips.
func TestWarmStartFrom(t *testing.T) {
	donor := fastCRL(t, nil)
	fresh := fastCRL(t, nil)
	if err := fresh.WarmStartFrom(nil, WarmStart{}); err == nil {
		t.Fatal("nil donor accepted")
	}
	if err := fresh.WarmStartFrom(donor, WarmStart{}); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("untrained donor err = %v", err)
	}
	if _, err := donor.Train(); err != nil {
		t.Fatal(err)
	}

	info := WarmStart{Source: 4, Distance: 0.25}
	if err := fresh.WarmStartFrom(donor, info); err != nil {
		t.Fatal(err)
	}
	got := fresh.warmStart
	if got == nil || *got != info {
		t.Fatalf("provenance = %+v, want %+v", got, info)
	}
	if donor.warmStart != nil {
		t.Fatal("donor must not inherit the recipient's provenance")
	}

	// Before any fine-tuning the recipient's greedy policy IS the donor's.
	fresh.trained = true
	for _, z := range []float64{0.1, 0.6, 0.9} {
		a1, _, err := donor.Predict([]float64{z})
		if err != nil {
			t.Fatal(err)
		}
		a2, _, err := fresh.Predict([]float64{z})
		if err != nil {
			t.Fatal(err)
		}
		for j := range a1 {
			if a1[j] != a2[j] {
				t.Fatalf("z=%v: transferred allocation differs at task %d", z, j)
			}
		}
	}

	// Snapshot round trip keeps the lineage; scratch models stay lineage-free.
	data, err := fresh.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := LoadCRL(data, fresh.store)
	if err != nil {
		t.Fatal(err)
	}
	if ws := restored.warmStart; ws == nil || *ws != info {
		t.Fatalf("restored provenance = %+v, want %+v", ws, info)
	}
	scratch, err := donor.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := LoadCRL(scratch, donor.store)
	if err != nil {
		t.Fatal(err)
	}
	if plain.warmStart != nil {
		t.Fatal("scratch-trained snapshot grew a warm-start provenance")
	}
}

// TestTrainReleasesLearningState: a finished training holds no replay ring —
// nothing a trained CRL is kept for reads it — and still predicts, seeds a
// warm start, and trains or observes again from an empty ring.
func TestTrainReleasesLearningState(t *testing.T) {
	crl := fastCRL(t, nil)
	if _, err := crl.Train(); err != nil {
		t.Fatal(err)
	}
	if n := crl.agent.ReplayLen(); n != 0 {
		t.Fatalf("a finished training still holds %d replayed transitions", n)
	}
	steps := crl.agent.Steps()
	if steps == 0 {
		t.Fatal("release dropped the step counter")
	}
	if _, _, err := crl.Predict([]float64{0.4}); err != nil {
		t.Fatalf("predict after release: %v", err)
	}
	first, err := crl.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}

	recipient := fastCRL(t, func(cfg *CRLConfig) { cfg.Episodes = 10 })
	if err := recipient.WarmStartFrom(crl, WarmStart{Source: 1}); err != nil {
		t.Fatalf("warm start from a released donor: %v", err)
	}
	if _, err := recipient.Train(); err != nil {
		t.Fatal(err)
	}
	if recipient.agent.Steps() <= steps {
		t.Fatal("the warm-started recipient did not resume the donor's step count")
	}

	// Training again re-allocates what it needs and releases it again.
	if _, err := crl.Train(); err != nil {
		t.Fatalf("second training: %v", err)
	}
	if n := crl.agent.ReplayLen(); n != 0 {
		t.Fatalf("the second training left %d replayed transitions", n)
	}
	second, err := crl.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first, second) {
		t.Fatal("the second training did not learn")
	}
	state := make([]float64, crl.agent.Online().InputSize())
	if err := crl.agent.Observe(rl.Transition{State: state, Action: 0, Reward: 1, Done: true}); err != nil {
		t.Fatalf("observe after release: %v", err)
	}
	if n := crl.agent.ReplayLen(); n != 1 {
		t.Fatalf("replay holds %d transitions after one Observe, want 1", n)
	}
}
