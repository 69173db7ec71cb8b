package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// limits is the template's constraint set, copied out of the world so the
// validator shares no code with the program it judges.
type limits struct {
	TimeLimit float64   // T, shared by all processors
	TaskTime  []float64 // t_j
	TaskRes   []float64 // v_j
	ProcCap   []float64 // V_p
}

// answer is the part of an allocate response the benchmark reads.
type answer struct {
	Allocation          []int   `json:"allocation"`
	Cluster             int     `json:"cluster"`
	Cache               string  `json:"cache"`
	Allocator           string  `json:"allocator"`
	Mode                string  `json:"mode"`
	PredictedImportance float64 `json:"predicted_importance"`
	TrainNanos          int64   `json:"train_ns"`
	LatencyNanos        int64   `json:"latency_ns"`
}

func (a *answer) degraded() bool { return a.Mode == "degraded" }

// cold reports an answer whose request led a policy training.
func (a *answer) cold() bool { return a.TrainNanos > 0 }

// parseAnswer decodes a 200 body into dst, reusing its allocation array.
func parseAnswer(body []byte, dst *answer) error {
	*dst = answer{Allocation: dst.Allocation[:0]}
	if err := json.Unmarshal(body, dst); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	return nil
}

// constraintEps absorbs float summation order; the server's own check uses
// the same slack.
const constraintEps = 1e-9

// checkAnswer validates one answer against the template's limits, the
// cluster the request was generated for, and the importance the server
// defined for it: every task on a processor in range (or -1), each
// processor's summed time within T and summed resource within its capacity,
// and predicted_importance equal to the defined importance the allocation
// captures. defined may be nil (degraded answers estimate importance on a
// different basis), which skips the last check.
func checkAnswer(lim *limits, a *answer, wantCluster int, defined []float64, usedT, usedV []float64) error {
	if len(a.Allocation) != len(lim.TaskTime) {
		return fmt.Errorf("allocation has %d entries for %d tasks", len(a.Allocation), len(lim.TaskTime))
	}
	if a.Cluster != wantCluster {
		return fmt.Errorf("answered for cluster %d, request was generated in cluster %d", a.Cluster, wantCluster)
	}
	for i := range usedT {
		usedT[i], usedV[i] = 0, 0
	}
	var captured float64
	for j, p := range a.Allocation {
		if p == -1 {
			continue
		}
		if p < 0 || p >= len(lim.ProcCap) {
			return fmt.Errorf("task %d on processor %d, have %d processors", j, p, len(lim.ProcCap))
		}
		usedT[p] += lim.TaskTime[j]
		usedV[p] += lim.TaskRes[j]
		if defined != nil {
			captured += defined[j]
		}
	}
	for p := range lim.ProcCap {
		if usedT[p] > lim.TimeLimit+constraintEps {
			return fmt.Errorf("processor %d runs %.6f s of tasks, limit %.6f", p, usedT[p], lim.TimeLimit)
		}
		if usedV[p] > lim.ProcCap[p]+constraintEps {
			return fmt.Errorf("processor %d holds %.6f of resource, capacity %.6f", p, usedV[p], lim.ProcCap[p])
		}
	}
	if defined != nil {
		if d := math.Abs(captured - a.PredictedImportance); d > 1e-9*(1+math.Abs(captured)) {
			return fmt.Errorf("predicted_importance %.12g, allocation captures %.12g", a.PredictedImportance, captured)
		}
	}
	return nil
}

// planValue is the true importance an allocation captures.
func planValue(allocation []int, truth []float64) float64 {
	var v float64
	for j, p := range allocation {
		if p >= 0 {
			v += truth[j]
		}
	}
	return v
}
