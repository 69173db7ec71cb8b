package main

import (
	"strings"
	"testing"
)

// testLimits is 4 tasks on 2 processors: every task costs 1 s and 1 unit,
// each processor has 2 s and capacity 2 (processor 1: capacity 1).
func testLimits() *limits {
	return &limits{
		TimeLimit: 2,
		TaskTime:  []float64{1, 1, 1, 1},
		TaskRes:   []float64{1, 1, 1, 1},
		ProcCap:   []float64{2, 1},
	}
}

func TestCheckAnswer(t *testing.T) {
	defined := []float64{0.4, 0.3, 0.2, 0.1}
	good := answer{Allocation: []int{0, 0, 1, -1}, Cluster: 7, PredictedImportance: 0.9}
	cases := []struct {
		name    string
		mutate  func(a *answer)
		cluster int
		wantErr string
	}{
		{name: "valid", mutate: func(*answer) {}, cluster: 7},
		{name: "short allocation", mutate: func(a *answer) { a.Allocation = a.Allocation[:3] }, cluster: 7, wantErr: "3 entries for 4 tasks"},
		{name: "processor out of range", mutate: func(a *answer) { a.Allocation[3] = 2 }, cluster: 7, wantErr: "on processor 2"},
		{name: "negative processor", mutate: func(a *answer) { a.Allocation[3] = -2 }, cluster: 7, wantErr: "on processor -2"},
		{name: "time limit", mutate: func(a *answer) { a.Allocation = []int{0, 0, 0, -1} }, cluster: 7, wantErr: "processor 0 runs 3"},
		{name: "capacity", mutate: func(a *answer) { a.Allocation = []int{0, -1, 1, 1} }, cluster: 7, wantErr: "processor 1 holds 2"},
		{name: "wrong prediction", mutate: func(a *answer) { a.PredictedImportance = 1.0 }, cluster: 7, wantErr: "predicted_importance"},
		{name: "wrong cluster", mutate: func(*answer) {}, cluster: 8, wantErr: "cluster 7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := good
			a.Allocation = append([]int(nil), good.Allocation...)
			tc.mutate(&a)
			err := checkAnswer(testLimits(), &a, tc.cluster, defined, make([]float64, 2), make([]float64, 2))
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("valid answer rejected: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("broken answer accepted")
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// A degraded answer estimates importance on another basis: the prediction
// check is skipped, the constraints are not.
func TestCheckAnswerDegradedSkipsPrediction(t *testing.T) {
	a := answer{Allocation: []int{0, 0, 1, -1}, Cluster: 7, Mode: "degraded", PredictedImportance: 123}
	if err := checkAnswer(testLimits(), &a, 7, nil, make([]float64, 2), make([]float64, 2)); err != nil {
		t.Fatalf("degraded answer rejected: %v", err)
	}
	a.Allocation = []int{0, 0, 0, -1}
	if err := checkAnswer(testLimits(), &a, 7, nil, make([]float64, 2), make([]float64, 2)); err == nil {
		t.Fatal("infeasible degraded answer accepted")
	}
}

func TestParseAnswerReusesAndResets(t *testing.T) {
	var a answer
	if err := parseAnswer([]byte(`{"allocation":[1,-1],"cluster":3,"cache":"miss","mode":"normal","train_ns":5,"latency_ns":9}`), &a); err != nil {
		t.Fatal(err)
	}
	if !a.cold() || a.degraded() || a.Cluster != 3 || len(a.Allocation) != 2 {
		t.Fatalf("parsed %+v", a)
	}
	if err := parseAnswer([]byte(`{"allocation":[0],"cluster":1,"cache":"hit","mode":"degraded","latency_ns":9}`), &a); err != nil {
		t.Fatal(err)
	}
	if a.cold() || !a.degraded() || len(a.Allocation) != 1 {
		t.Fatalf("second parse kept state of the first: %+v", a)
	}
	if err := parseAnswer([]byte(`{"allocation":`), &a); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestPlanValue(t *testing.T) {
	if got := planValue([]int{0, -1, 3}, []float64{0.5, 0.25, 0.125}); got != 0.625 {
		t.Fatalf("planValue = %v, want 0.625", got)
	}
}
