package loadgen

import (
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/serve"
)

func TestParseLevels(t *testing.T) {
	got, err := ParseLevels(" 1, 2,16 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 16}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "0", "a", "1,,2", "1,-3"} {
		if _, err := ParseLevels(bad); err == nil {
			t.Fatalf("ParseLevels(%q) accepted", bad)
		}
	}
}

func TestBuildReportAggregation(t *testing.T) {
	cold := &ColdResult{
		Clusters:     2,
		TrainNs:      []float64{100, 300},
		ClientMeanNs: 150,
	}
	levels := []LevelResult{
		{Concurrency: 1, Requests: 100, Throughput: 1000, P50: 50, P95: 80, P99: 90, HitRate: 1},
		{Concurrency: 8, Requests: 100, Throughput: 4000, P50: 70, P95: 120, P99: 400, HitRate: 0.5,
			Degraded: 10, NonOK: 25},
	}
	stats := serve.Stats{}
	stats.Cache.WarmStarts = 3
	stats.Cache.EarlyStops = 2
	stats.Cache.SpeculativeInstalls = 1
	stats.Cache.SpeculativeHits = 4
	rep := BuildReport(cold, levels, &stats, 0.97)
	if rep.WarmP50Ns != 50 || rep.WarmP95Ns != 80 {
		t.Fatalf("p50/p95 should be the best level's: %+v", rep)
	}
	if rep.WarmStarts != 3 || rep.EarlyStops != 2 || rep.SpeculativeInstalls != 1 || rep.SpeculativeHits != 4 {
		t.Fatalf("server counters not forwarded: %+v", rep)
	}
	if rep.ValueParity != 0.97 || rep.ColdTrainings != 2 {
		t.Fatalf("parity/cold trainings not recorded: %+v", rep)
	}
	if rep.WarmP99Ns != 400 {
		t.Fatalf("p99 should be the worst level's: %+v", rep)
	}
	if rep.BestThroughputRPS != 4000 {
		t.Fatalf("throughput should be the max: %+v", rep)
	}
	if rep.WarmHitRate != 0.75 {
		t.Fatalf("hit rate should be request-weighted: %+v", rep)
	}
	if rep.DegradedRate != 0.05 {
		t.Fatalf("degraded rate: %+v", rep)
	}
	if rep.NonOKRate != 25.0/225.0 {
		t.Fatalf("non-2xx rate: %+v", rep)
	}
	if rep.ColdTrainP50Ns != 200 {
		t.Fatalf("cold train p50: %+v", rep)
	}
	if rep.ColdOverWarmP99 != 0.5 {
		t.Fatalf("cold/warm ratio: %+v", rep)
	}
	if rep.SweptConcurrencies != 2 {
		t.Fatalf("swept levels: %+v", rep)
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	rep := Report{GoVersion: "go-test", GOMAXPROCS: 4, WarmP99Ns: 123456, BestThroughputRPS: 9876.5}
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != rep {
		t.Fatalf("round trip: got %+v, want %+v", got, rep)
	}
	if _, err := LoadReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

func TestResolveSlack(t *testing.T) {
	cases := []struct {
		flag float64
		env  string
		want float64
		bad  bool
	}{
		{flag: -1, env: "", want: DefaultGateSlack},
		{flag: 0.5, env: "9", want: 0.5}, // explicit flag beats env
		{flag: 0, env: "9", want: 0},     // zero is a valid explicit choice
		{flag: -1, env: "1.5", want: 1.5},
		{flag: -1, env: "nope", bad: true},
		{flag: -1, env: "-0.5", bad: true},
	}
	for _, c := range cases {
		got, err := ResolveSlack(c.flag, c.env)
		if c.bad {
			if err == nil {
				t.Fatalf("flag=%v env=%q: want error", c.flag, c.env)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Fatalf("flag=%v env=%q: got %v, %v; want %v", c.flag, c.env, got, err, c.want)
		}
	}
}

func TestGate(t *testing.T) {
	base := Report{WarmP99Ns: 1000, BestThroughputRPS: 10000}

	if v := Gate(Report{WarmP99Ns: 1250, BestThroughputRPS: 8000}, base, 0.25); len(v) != 0 {
		t.Fatalf("at-the-limit run should pass: %v", v)
	}
	v := Gate(Report{WarmP99Ns: 1300, BestThroughputRPS: 10000}, base, 0.25)
	if len(v) != 1 || v[0].Metric != "serve_warm_p99_ns" {
		t.Fatalf("p99 regression not caught: %v", v)
	}
	if v[0].String() == "" {
		t.Fatal("violation should render")
	}
	v = Gate(Report{WarmP99Ns: 900, BestThroughputRPS: 7000}, base, 0.25)
	if len(v) != 1 || v[0].Metric != "serve_best_throughput_rps" {
		t.Fatalf("throughput regression not caught: %v", v)
	}
	v = Gate(Report{WarmP99Ns: 5000, BestThroughputRPS: 100}, base, 0.25)
	if len(v) != 2 {
		t.Fatalf("double regression: %v", v)
	}
	// Wider slack (the noisy-runner override) forgives the same run.
	if v := Gate(Report{WarmP99Ns: 5000, BestThroughputRPS: 2500}, base, 4); len(v) != 0 {
		t.Fatalf("slack=4 should forgive 5x: %v", v)
	}
	// A baseline without the metric cannot gate it.
	if v := Gate(Report{WarmP99Ns: 1e9}, Report{}, 0.25); len(v) != 0 {
		t.Fatalf("empty baseline gated: %v", v)
	}

	// Cold-start training p50 is gated once a baseline records it.
	coldBase := Report{ColdTrainP50Ns: 40e6}
	if v := Gate(Report{ColdTrainP50Ns: 50e6}, coldBase, 0.25); len(v) != 0 {
		t.Fatalf("at-the-limit cold p50 should pass: %v", v)
	}
	v = Gate(Report{ColdTrainP50Ns: 51e6}, coldBase, 0.25)
	if len(v) != 1 || v[0].Metric != "serve_cold_train_p50_ns" {
		t.Fatalf("cold p50 regression not caught: %v", v)
	}
	// Pre-PR7 baselines lack the field and must not gate fresh sweeps.
	if v := Gate(Report{ColdTrainP50Ns: 1e12}, Report{WarmP99Ns: 1000}, 0.25); len(v) != 0 {
		t.Fatalf("missing cold baseline gated: %v", v)
	}
}

func TestClusterGateFailover(t *testing.T) {
	single := Report{WarmP99Ns: 1000, BestThroughputRPS: 10000}
	good := Report{
		GOMAXPROCS:                  1,
		WarmP99Ns:                   1000,
		BestThroughputRPS:           10000,
		ClusterFailoverRequests:     200,
		ClusterFailoverWarmFraction: 0.95,
	}
	if v := ClusterGate(good, single, 0.25); len(v) != 0 {
		t.Fatalf("healthy failover run should pass: %v", v)
	}

	low := good
	low.ClusterFailoverWarmFraction = 0.8
	v := ClusterGate(low, single, 0.25)
	if len(v) != 1 || v[0].Metric != "cluster_failover_warm_fraction" {
		t.Fatalf("cold failover not caught: %v", v)
	}
	// Slack is a latency tolerance; it must not forgive a cold failover.
	if v := ClusterGate(low, single, 4); len(v) != 1 {
		t.Fatalf("slack forgave a cold failover: %v", v)
	}

	dropped := good
	dropped.ClusterFailoverNon2xx = 3
	v = ClusterGate(dropped, single, 0.25)
	if len(v) != 1 || v[0].Metric != "cluster_failover_non2xx" {
		t.Fatalf("failover non-2xx not caught: %v", v)
	}

	// A sweep that never ran the probe (pre-PR9 record) is not gated on it.
	noProbe := good
	noProbe.ClusterFailoverRequests = 0
	noProbe.ClusterFailoverWarmFraction = 0
	if v := ClusterGate(noProbe, single, 0.25); len(v) != 0 {
		t.Fatalf("probe-less sweep gated on failover: %v", v)
	}
}

func TestBaselineOptionsShape(t *testing.T) {
	o := BaselineOptions(7)
	if o.Seed != 7 || o.Scale != "fast" || len(o.Levels) == 0 || o.Requests < 1 {
		t.Fatalf("degenerate baseline options: %+v", o)
	}
	if _, err := dcta.ScaledScenarioConfig(o.Seed, o.Scale); err != nil {
		t.Fatal(err)
	}
}
