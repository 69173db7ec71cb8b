package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestFaultTolerantDemoSmoke runs the full demo end to end — real loopback
// workers, real TCP, heartbeats on — over clean links: the failure detector
// must finish the plan without declaring a healthy worker dead. The name
// matches the CI chaos regex so this runs under -race there.
func TestFaultTolerantDemoSmoke(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, demoOptions{
		Workers:   3,
		TimeScale: 0.0005,
		Method:    "DCTA",
		Seed:      1,
		Scale:     "fast",
	})
	if err != nil {
		t.Fatalf("demo failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"decision ready at", "edgesim model of the same plan: decision ready at", "robustness:", " 0 dead workers"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestChaosDemoSmoke drives the demo's fault-injection flags: one worker's
// link freezes mid-run and completion frames are randomly corrupted, both
// behind the netfault proxy. The run must still finish and print the
// robustness counters. The name matches the CI chaos regex so this runs
// under -race there.
func TestChaosDemoSmoke(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, demoOptions{
		Workers:     4,
		TimeScale:   0.0005,
		Method:      "DCTA",
		Seed:        1,
		Scale:       "fast",
		HangWorker:  2,
		CorruptRate: 0.1,
	})
	if err != nil {
		t.Fatalf("chaos demo failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"[faulty link]",
		"decision ready at",
		"robustness:",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	// The frozen link must have been noticed: the demo reports at least one
	// dead worker.
	if strings.Contains(out.String(), "0 dead workers") {
		t.Fatalf("hung worker never declared dead:\n%s", out.String())
	}
}

func TestDemoRejectsFaultFlagRanges(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, demoOptions{Workers: 2, HangWorker: 5}); err == nil {
		t.Fatal("out-of-range -hang-worker accepted")
	}
	if err := run(&out, demoOptions{Workers: 2, CorruptRate: 1.5}); err == nil {
		t.Fatal("out-of-range -corrupt-rate accepted")
	}
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		if err := run(&out, demoOptions{Workers: 2, TimeScale: scale}); err == nil || !strings.Contains(err.Error(), "-timescale") {
			t.Errorf("-timescale %v: err = %v, want it rejected", scale, err)
		}
	}
}

func TestDemoRejectsUnknownScale(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, demoOptions{Workers: 1, Scale: "nope"}); err == nil {
		t.Fatal("unknown scale accepted")
	}
}
