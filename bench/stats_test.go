package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v: need ten samples beyond the percentile", tc.n, got, tc.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50}
	for p, want := range map[float64]float64{0: 10, 0.5: 30, 1: 50, 0.25: 20, 0.9: 46} {
		if got := quantile(v, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
}

// One stall lands in one window: the windowed p99 must not move, while the
// plain p99 over all samples does.
func TestWindowedP99IgnoresOneStall(t *testing.T) {
	var at []int64
	var lat []float64
	for w := 0; w < 20; w++ {
		for i := 0; i < 1000; i++ {
			at = append(at, int64(w)*windowNs+int64(i)*1000)
			lat = append(lat, 100+float64(i%10))
		}
	}
	calm := windowedP99(at, lat, windowNs)
	for i := 0; i < 300; i++ { // a 300-request stall inside window 7
		lat[7*1000+i] = 50000
	}
	if got := windowedP99(at, lat, windowNs); got != calm {
		t.Errorf("windowed p99 moved from %v to %v on one stalled window", calm, got)
	}
	if plain := quantile(sortedCopy(lat), 0.99); plain < 1000 {
		t.Errorf("plain p99 = %v: the stall should dominate it, or the test proves nothing", plain)
	}
}

func TestWindowValuesOrderAndCount(t *testing.T) {
	at := []int64{2 * windowNs, 5, windowNs + 1, 2*windowNs + 9}
	val := []float64{3, 1, 2, 4}
	got := windowValues(at, val, windowNs, func(v []float64) float64 { return float64(len(v)) })
	if len(got) != 3 || got[0] != 1 || got[1] != 1 || got[2] != 2 {
		t.Errorf("window counts = %v, want [1 1 2]", got)
	}
}

// relIQR must agree with Python's statistics.quantiles(v, n=4), which the
// acceptance rule is written in.
func TestRelIQRMatchesPythonQuantiles(t *testing.T) {
	v := []float64{12, 15, 11, 19, 14, 13, 18, 16, 17, 10}
	// statistics.quantiles(v, n=4) == [11.75, 14.5, 17.25]
	if got, want := relIQR(v), (17.25-11.75)/14.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("relIQR = %v, want %v", got, want)
	}
	if relIQR([]float64{1, 2}) != 0 {
		t.Error("relIQR of fewer than four values should be 0")
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "p50", Bound: 0.10}
	higher := metricSpec{Name: "rps", Higher: true, Bound: 0.10}
	abs := metricSpec{Name: "miss", Bound: 0.005, Abs: true}
	zero := metricSpec{Name: "fail", Bound: 0, Abs: true}
	for _, tc := range []struct {
		name   string
		m      metricSpec
		a, b   float64
		sa, sb float64
		want   string
	}{
		{"within bound", lower, 100, 109, 0, 0, verdictOK},
		{"beyond bound", lower, 100, 111, 0, 0, verdictWorse},
		{"better", lower, 100, 50, 0, 0, verdictOK},
		{"higher is better, dropped", higher, 1000, 880, 0, 0, verdictWorse},
		{"higher is better, rose", higher, 1000, 2000, 0, 0, verdictOK},
		{"noise wider than the bound", lower, 100, 104, 0.2, 0.01, verdictUnresolved},
		{"worse even though noisy", lower, 100, 150, 0.2, 0.2, verdictWorse},
		{"missing side", lower, 100, math.NaN(), 0, 0, verdictUnresolved},
		{"absolute within", abs, 0.001, 0.005, 0, 0, verdictOK},
		{"absolute beyond", abs, 0.001, 0.007, 0, 0, verdictWorse},
		{"zero tolerance holds at zero", zero, 0, 0, 0, 0, verdictOK},
		{"zero tolerance broken", zero, 0, 0.0001, 0, 0, verdictWorse},
	} {
		if got := judge(tc.m, tc.a, tc.b, tc.sa, tc.sb); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}
