package main

import (
	"strings"
	"testing"
)

func resultOf(workload string, metrics map[string]float64) *runResult {
	return &runResult{Workload: workload, Metrics: metrics, Spread: map[string]float64{}, Samples: map[string]int{}}
}

func TestCompareResults(t *testing.T) {
	a := &resultFile{Workloads: []*runResult{
		resultOf("warm_dcta", map[string]float64{"alloc_p50_us": 200, "alloc_rps": 8000, "fail_rate": 0, "value_ratio": 0.60}),
		resultOf("edge_pt", map[string]float64{"pt_p50_ms": 4.0, "deadline_miss_rate": 0.50}),
	}}
	b := &resultFile{Workloads: []*runResult{
		resultOf("warm_dcta", map[string]float64{"alloc_p50_us": 215, "alloc_rps": 5000, "fail_rate": 0, "value_ratio": 0.58}),
		resultOf("edge_pt", map[string]float64{"pt_p50_ms": 3.0, "deadline_miss_rate": 0.502}),
	}}
	b.Workloads[0].Spread["alloc_p50_us"] = 0.3 // noisier than the bound
	rows, worse := compareResults(a, b)
	want := map[string]string{
		"warm_dcta\talloc_p50_us":     verdictUnresolved, // +7.5%, but the run's own spread is 30%
		"warm_dcta\talloc_rps":        verdictWorse,      // -37.5%
		"warm_dcta\tfail_rate":        verdictOK,
		"warm_dcta\tvalue_ratio":      verdictWorse, // -3.3% against a 2% bound
		"edge_pt\tpt_p50_ms":          verdictOK,
		"edge_pt\tdeadline_miss_rate": verdictOK, // +0.002 absolute, bound 0.005
	}
	if len(rows) != len(want) {
		t.Errorf("%d rows, want %d: one per workload × metric either side measured\n%s", len(rows), len(want), strings.Join(rows, "\n"))
	}
	for prefix, verdict := range want {
		found := false
		for _, r := range rows {
			if strings.HasPrefix(r, prefix+"\t") {
				found = true
				if !strings.HasSuffix(r, "\t"+verdict) {
					t.Errorf("row %q: want verdict %s", r, verdict)
				}
			}
		}
		if !found {
			t.Errorf("no row for %q", prefix)
		}
	}
	if len(worse) != 2 {
		t.Errorf("worse = %v, want the two pairs beyond their bound", worse)
	}
	if _, worse := compareResults(a, a); len(worse) != 0 {
		t.Errorf("a result set is worse than itself: %v", worse)
	}
}
