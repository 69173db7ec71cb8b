package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// runner spawns os.Executable() as the SUT host, which under `go test` is
// this binary.
func TestMain(m *testing.M) {
	if len(os.Args) >= 3 && os.Args[1] == "-host" {
		smoke := len(os.Args) >= 4 && os.Args[3] == "-smoke"
		if err := hostMain(os.Args[2], smoke); err != nil {
			fmt.Fprintln(os.Stderr, "bench host:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkFile mirrors ../BENCHMARK.json, the contract the driver reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesSpec pins BENCHMARK.json to the tables in spec.go,
// and the contract's own limits on it.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in spec.go (or the reasons differ)", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(list string, got []benchmarkMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s lists %d metrics, spec.go has %d", list, len(got), len(want))
			return
		}
		for i, m := range got {
			better := "lower"
			if want[i].Higher {
				better = "higher"
			}
			if m.Name != want[i].Name || m.Unit != want[i].Unit || m.Better != better {
				t.Errorf("%s[%d] = %+v, spec.go has %+v", list, i, m, want[i])
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != want[i].Bound || *m.Bound > 0.25):
				t.Errorf("%s: bound in BENCHMARK.json does not match spec.go's %v (at most 0.25)", m.Name, want[i].Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
		}
	}
	check("end_to_end", f.EndToEnd, metricsOfTier(tierGated), true)
	check("per_layer", f.PerLayer, metricsOfTier(tierEndToEnd, tierLayer), false)
	if len(f.PerLayer) > 128 || len(f.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(f.EndToEnd), len(f.PerLayer))
	}
	if f.RunSeconds < 10 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
	setup := f.EndToEnd[0]
	for _, m := range f.EndToEnd {
		if *m.Bound > *setup.Bound {
			t.Errorf("%s has a wider bound than setup_s, which must have the widest", m.Name)
		}
	}
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s in s, lower is better: %+v", setup)
	}
}

// TestSmoke boots every workload on the small world for one second and
// checks that every metric BENCHMARK.json names comes out once, finite, with
// its unit, and that no answer was wrong.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots five topologies")
	}
	start := time.Now()
	f := readBenchmarkFile(t)
	w := testWorld(t)
	dir := t.TempDir()
	for _, spec := range workloads {
		res, err := runWorkload(w, runConfig{Spec: spec, Seed: 1, Seconds: 1, Setups: 1, Smoke: true, TraceDir: dir})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d requests failed: %v", spec.Name, res.Failed, res.Attempted, res.Failures)
		}
		for _, m := range f.EndToEnd {
			v, ok := res.Metrics[m.Name]
			if !ok || v <= 0 || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v (present: %v): every workload must report it, above 0", spec.Name, m.Name, v, ok)
			}
		}
		for _, m := range append(f.EndToEnd, f.PerLayer...) {
			if unitOf(m.Name) != m.Unit {
				t.Errorf("%s is in %q, BENCHMARK.json says %q", m.Name, unitOf(m.Name), m.Unit)
			}
			if v, ok := res.Metrics[m.Name]; ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
				t.Errorf("%s: %s = %v", spec.Name, m.Name, v)
			}
		}
		if _, err := os.Stat(dir + "/trace-" + spec.Name + ".jsonl"); err != nil {
			t.Errorf("%s: no trace written: %v", spec.Name, err)
		}
		for name, want := range expectedLayerMetrics(spec) {
			if _, ok := res.Metrics[name]; ok != want {
				t.Errorf("%s: metric %s present = %v, want %v", spec.Name, name, ok, want)
			}
		}
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("smoke took %s, budget 15 s", d.Round(time.Millisecond))
	}
}

// expectedLayerMetrics lists, for a workload, metrics that must (true) or
// must not (false) come out: each layer shows where it works and is absent
// where it does not.
func expectedLayerMetrics(spec workloadSpec) map[string]bool {
	crl := spec.Allocator == "crl"
	return map[string]bool{
		"cluster.router_hop_us":     spec.Router,
		"cluster.shard_balance":     spec.Router,
		"feedback_p50_us":           spec.FeedbackEvery > 0,
		"pt_p50_ms":                 spec.EdgeWorkers,
		"pt_speedup_vs_rm":          spec.EdgeWorkers,
		"edgenet.exec_ms":           spec.EdgeWorkers,
		"core.rollout_us":           crl && !spec.StoreBases,
		"alloc.combine_us":          !crl,
		"serve.http_us":             !spec.StoreBases,
		"core.train_ms":             true,
		"client.null_rtt_us":        true,
		"runtime.cpu_us_per_req":    true,
		"serve.cache_hit_share":     true,
		"client.trace_overhead_pct": true,
	}
}

// The runner refuses a client count or GOMAXPROCS above the CPU count: the
// generator would then time-slice against the system it measures.
func TestRunnerRefusesOversubscription(t *testing.T) {
	spec, _ := findWorkload("warm_crl")
	_, err := runWorkload(testWorld(t), runConfig{Spec: spec, Seed: 1, Seconds: 1, Setups: 1, Smoke: true, Clients: runtime.NumCPU() + 1})
	if err == nil {
		t.Fatal("ran with more clients than CPUs")
	}
	prev := runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	defer runtime.GOMAXPROCS(prev)
	if _, err := runWorkload(testWorld(t), runConfig{Spec: spec, Seed: 1, Seconds: 1, Setups: 1, Smoke: true}); err == nil {
		t.Fatal("ran with GOMAXPROCS above the CPU count")
	}
}

func TestStampRecordsTheRun(t *testing.T) {
	st := newStamp(9)
	if st.GoVersion != runtime.Version() || st.NProc != runtime.NumCPU() || st.GOMAXPROCS != runtime.GOMAXPROCS(0) ||
		st.WorldSeed != worldSeed || st.WorkloadSeed != 9 || st.Commit == "" {
		t.Fatalf("stamp = %+v", st)
	}
}
