package main

import (
	"bytes"
	"io"
	"testing"

	"repro"
)

func TestConfigFor(t *testing.T) {
	fast, err := dcta.ScaledScenarioConfig(3, "fast")
	if err != nil {
		t.Fatal(err)
	}
	if fast.Seed != 3 || fast.Tasks != 24 || fast.Workers != 5 {
		t.Fatalf("fast config = %+v", fast)
	}
	def, err := dcta.ScaledScenarioConfig(1, "default")
	if err != nil {
		t.Fatal(err)
	}
	if def.Tasks != 50 || def.Workers != 9 {
		t.Fatalf("default config = %+v", def)
	}
	full, err := dcta.ScaledScenarioConfig(1, "full")
	if err != nil {
		t.Fatal(err)
	}
	if full.Years != 4 || full.StepHours != 1 || full.HistoryContexts != 120 {
		t.Fatalf("full config = %+v", full)
	}
	if _, err := dcta.ScaledScenarioConfig(1, "warp"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run(io.Discard, io.Discard, "nope", 1, "warp"); err == nil {
		t.Fatal("bad scale accepted")
	}
}

// TestFiguresDeterministic: two runs of every figure print the same bytes
// on standard output; only the timing stream may differ.
func TestFiguresDeterministic(t *testing.T) {
	var first, second, timing bytes.Buffer
	for _, out := range []*bytes.Buffer{&first, &second} {
		if err := run(out, &timing, "all", 1, "fast"); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		a, b := first.String(), second.String()
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		t.Fatalf("standard output differs between runs at byte %d:\n%q\nvs\n%q",
			i, a[max(0, i-80):min(len(a), i+80)], b[max(0, i-80):min(len(b), i+80)])
	}
	if timing.Len() == 0 {
		t.Fatal("no wall-clock timings printed")
	}
}
