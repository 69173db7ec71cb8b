package main

import (
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
	if err := run("nope", 1, "warp"); err == nil {
		t.Fatal("bad scale accepted")
	}
}
