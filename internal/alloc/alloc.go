// Package alloc implements the four task-allocation strategies compared in
// §V: Random Mapping (RM), Distributed Machine Learning (DML), Clustered
// Reinforcement Learning (CRL), and Data-driven Cooperative Task Allocation
// (DCTA) — plus an importance oracle used by the Fig. 3 experiment.
//
// All allocators implement Allocator: given a TATIM problem structure and
// the current sensing signature, they return a feasible core.Allocation and
// an estimate of the computation the decision itself costs (which the edge
// simulator converts into controller time).
package alloc

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/mathx"
)

// ErrNotReady is returned when a data-driven allocator is used before
// training.
var ErrNotReady = errors.New("alloc: allocator not trained")

// Request is one allocation query.
type Request struct {
	// Problem carries the task costs, processors and time limit. Its
	// Importance fields hold the *true* current importance — the synthetic
	// allocators must not read them (they are what the data-driven methods
	// estimate); evaluation code uses them to score outcomes.
	Problem *core.Problem
	// Signature is the sensing data Z for environment definition.
	Signature []float64
	// Features carries the Table-I feature vector per task for allocators
	// with a local process (DCTA); others ignore it.
	Features [][]float64
}

// Result is an allocator's answer.
type Result struct {
	Allocation core.Allocation
	// DecisionOps approximates the arithmetic work of making the decision,
	// in abstract operations; the simulator divides by controller speed.
	DecisionOps float64
	// PredictedImportance is the allocator's own estimate of the captured
	// importance (diagnostics; 0 when not applicable).
	PredictedImportance float64
	// Priority optionally orders execution within each processor queue
	// (higher runs first); nil means task-index order. Importance-aware
	// allocators front-load the tasks the final decision is waiting on.
	Priority []float64
}

// Allocator is a §V task-allocation strategy.
type Allocator interface {
	// Name returns the strategy label used in tables ("RM", "DML", …).
	Name() string
	// Allocate answers one allocation query.
	Allocate(req Request) (*Result, error)
}

// validate performs the shared request checks.
func validate(req Request) error {
	if req.Problem == nil {
		return fmt.Errorf("alloc: nil problem")
	}
	return req.Problem.Validate()
}

// RandomMapping assigns every task to an edge device with equal probability
// (the paper's RM baseline, after [33]). It is importance-agnostic and tries
// to run everything: tasks are shuffled and placed wherever they still fit.
type RandomMapping struct {
	rng *rand.Rand
}

// NewRandomMapping builds the RM baseline.
func NewRandomMapping(seed int64) *RandomMapping {
	return &RandomMapping{rng: mathx.NewRand(seed)}
}

// Name implements Allocator.
func (r *RandomMapping) Name() string { return "RM" }

// Allocate implements Allocator.
func (r *RandomMapping) Allocate(req Request) (*Result, error) {
	if err := validate(req); err != nil {
		return nil, err
	}
	p := req.Problem
	n, m := len(p.Tasks), len(p.Processors)
	remT := make([]float64, m)
	remV := make([]float64, m)
	for i, pr := range p.Processors {
		remT[i] = p.TimeLimit
		remV[i] = pr.Capacity
	}
	a := make(core.Allocation, n)
	for j := range a {
		a[j] = core.Unassigned
	}
	order := r.rng.Perm(n)
	for _, j := range order {
		t := p.Tasks[j]
		// Equal-probability first pick; fall back to scanning from there.
		start := r.rng.Intn(m)
		for k := 0; k < m; k++ {
			proc := (start + k) % m
			if t.TimeCost <= remT[proc]+1e-12 && t.Resource <= remV[proc]+1e-12 {
				a[j] = proc
				remT[proc] -= t.TimeCost
				remV[proc] -= t.Resource
				break
			}
		}
	}
	// RM's "decision" is a single pass of dice rolls; its queue order is as
	// random as its placement.
	prio := make([]float64, n)
	for j := range prio {
		prio[j] = r.rng.Float64()
	}
	return &Result{Allocation: a, DecisionOps: float64(n), Priority: prio}, nil
}

// DML distributes tasks to computing nodes the way distributed-ML frameworks
// do ([34]): balanced by load, proportional to node capacity, treating every
// task as equally important. Like RM it tries to run all tasks, but its
// placement is deliberate, so it beats RM on makespan.
type DML struct{}

// NewDML builds the DML baseline.
func NewDML() *DML { return &DML{} }

// Name implements Allocator.
func (d *DML) Name() string { return "DML" }

// Allocate implements Allocator.
func (d *DML) Allocate(req Request) (*Result, error) {
	if err := validate(req); err != nil {
		return nil, err
	}
	p := req.Problem
	n, m := len(p.Tasks), len(p.Processors)
	remT := make([]float64, m)
	remV := make([]float64, m)
	for i, pr := range p.Processors {
		remT[i] = p.TimeLimit
		remV[i] = pr.Capacity
	}
	a := make(core.Allocation, n)
	for j := range a {
		a[j] = core.Unassigned
	}
	// Longest-processing-time first onto the least-loaded feasible node —
	// the classic balanced dispatch, blind to importance.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			if p.Tasks[order[y]].TimeCost > p.Tasks[order[x]].TimeCost {
				order[x], order[y] = order[y], order[x]
			}
		}
	}
	for _, j := range order {
		t := p.Tasks[j]
		best := -1
		for proc := 0; proc < m; proc++ {
			if t.TimeCost > remT[proc]+1e-12 || t.Resource > remV[proc]+1e-12 {
				continue
			}
			if best == -1 || remT[proc] > remT[best] {
				best = proc
			}
		}
		if best >= 0 {
			a[j] = best
			remT[best] -= t.TimeCost
			remV[best] -= t.Resource
		}
	}
	// Sort + scan per task.
	return &Result{Allocation: a, DecisionOps: float64(n*m) + float64(n)*logf(n)}, nil
}

// OracleGreedy allocates with full knowledge of the true importance — the
// "accurate task allocation" of Fig. 3. It packs by importance density under
// the TATIM constraints and stops once the coverage target of total
// importance is captured, dropping the unimportant tail.
type OracleGreedy struct {
	// CoverageTarget is the fraction of total importance to capture before
	// stopping (1 = pack as much as fits).
	CoverageTarget float64
}

// NewOracleGreedy builds the oracle with the default 95% coverage target.
func NewOracleGreedy() *OracleGreedy { return &OracleGreedy{CoverageTarget: 0.95} }

// Name implements Allocator.
func (o *OracleGreedy) Name() string { return "Oracle" }

// Allocate implements Allocator.
func (o *OracleGreedy) Allocate(req Request) (*Result, error) {
	if err := validate(req); err != nil {
		return nil, err
	}
	imp := make([]float64, len(req.Problem.Tasks))
	for i, t := range req.Problem.Tasks {
		imp[i] = t.Importance
	}
	a, ops := PackByScoreInto(req.Problem, imp, o.CoverageTarget, nil, &PackScratch{})
	return &Result{
		Allocation:          a,
		DecisionOps:         ops,
		PredictedImportance: req.Problem.Objective(a),
		Priority:            imp,
	}, nil
}

// PackScratch is reusable workspace for PackByScoreInto so the serving warm
// path packs without steady-state allocations. Buffers grow to the problem
// size on first use and are reused afterwards.
type PackScratch struct {
	Order   []int
	Density []float64
	RemT    []float64
	RemV    []float64
	Ready   []float64
}

// growInts returns buf resized to n, reallocating only when capacity is short.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// growFloats returns buf resized to n, reallocating only when capacity is
// short.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// PackByScoreInto greedily assigns tasks in decreasing score density
// (score / normalized cost) to the processor where each finishes earliest,
// stopping when `coverage` of the total positive score is captured. The
// allocation is written into dst (grown as needed) with caller-owned
// scratch; it returns the allocation and an op-count estimate.
func PackByScoreInto(p *core.Problem, score []float64, coverage float64, dst core.Allocation, scratch *PackScratch) (core.Allocation, float64) {
	n, m := len(p.Tasks), len(p.Processors)
	if coverage <= 0 || coverage > 1 {
		coverage = 1
	}
	var total float64
	for _, s := range score {
		if s > 0 {
			total += s
		}
	}
	maxCap := 0.0
	for _, pr := range p.Processors {
		if pr.Capacity > maxCap {
			maxCap = pr.Capacity
		}
	}
	order := growInts(scratch.Order, n)
	dens := growFloats(scratch.Density, n)
	for i := range order {
		order[i] = i
		t := p.Tasks[i]
		cost := t.TimeCost/p.TimeLimit + 1e-9
		if t.Resource > 0 && maxCap > 0 {
			cost += t.Resource / maxCap
		}
		dens[i] = score[i] / cost
	}
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			if dens[order[y]] > dens[order[x]] {
				order[x], order[y] = order[y], order[x]
			}
		}
	}
	remT := growFloats(scratch.RemT, m)
	remV := growFloats(scratch.RemV, m)
	ready := growFloats(scratch.Ready, m) // accumulated wall-clock work per node
	for i, pr := range p.Processors {
		remT[i] = p.TimeLimit
		remV[i] = pr.Capacity
		ready[i] = 0
	}
	scratch.Order, scratch.Density = order, dens
	scratch.RemT, scratch.RemV, scratch.Ready = remT, remV, ready
	if cap(dst) < n {
		dst = make(core.Allocation, n)
	}
	a := dst[:n]
	for j := range a {
		a[j] = core.Unassigned
	}
	var captured float64
	for _, j := range order {
		if total > 0 && captured >= coverage*total {
			break
		}
		if score[j] <= 0 {
			break
		}
		t := p.Tasks[j]
		// Earliest-completion-time placement: since tasks are visited in
		// priority order, finishing each as soon as possible minimizes the
		// decision-ready instant.
		best := -1
		bestFinish := 0.0
		for proc := 0; proc < m; proc++ {
			if t.TimeCost > remT[proc]+1e-12 || t.Resource > remV[proc]+1e-12 {
				continue
			}
			speed := p.Processors[proc].SpeedFactor
			if speed <= 0 {
				speed = 1
			}
			finish := ready[proc] + t.TimeCost/speed
			if best == -1 || finish < bestFinish {
				best, bestFinish = proc, finish
			}
		}
		if best >= 0 {
			speed := p.Processors[best].SpeedFactor
			if speed <= 0 {
				speed = 1
			}
			a[j] = best
			remT[best] -= t.TimeCost
			remV[best] -= t.Resource
			ready[best] += t.TimeCost / speed
			captured += score[j]
		}
	}
	ops := float64(n*n) + float64(n*m) // sort + placement scans
	return a, ops
}

func logf(n int) float64 {
	if n < 2 {
		return 1
	}
	v := 0.0
	for n > 1 {
		n /= 2
		v++
	}
	return v
}

// Compile-time interface checks.
var (
	_ Allocator = (*RandomMapping)(nil)
	_ Allocator = (*DML)(nil)
	_ Allocator = (*OracleGreedy)(nil)
)
