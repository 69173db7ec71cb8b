// Package knapsack implements the 0-1 multiply-constrained multiple
// knapsack problem (MCMK) that Theorem 1 reduces TATIM to: items with a
// value (task importance), a weight (execution time) and a volume (resource
// demand) are packed into knapsacks (processors) with per-knapsack weight
// and volume capacities. Items may be left unpacked.
//
// Two solvers are provided:
//   - SolveExact: branch-and-bound, the reference optimum for small N;
//   - SolveGreedy: density-greedy first-fit, the scalable heuristic the
//     synthetic (non-data-driven) allocators build on.
//
// The package tests cross-validate SolveExact on M=1 instances against
// SolveDP, a textbook single-knapsack dynamic program in knapsack_test.go.
package knapsack

import (
	"errors"
	"fmt"
	"sort"
)

// Common errors.
var (
	// ErrBadInstance is returned for malformed problem instances.
	ErrBadInstance = errors.New("knapsack: invalid instance")
	// ErrTooLarge is returned when SolveExact would explode.
	ErrTooLarge = errors.New("knapsack: instance too large for exact solver")
)

// Item is one packable item (a task in TATIM).
type Item struct {
	// Value is the packing profit (task importance).
	Value float64
	// Weight consumes the knapsack's weight capacity (execution time).
	Weight float64
	// Volume consumes the knapsack's volume capacity (resource demand).
	Volume float64
}

// Sack is one knapsack (a processor in TATIM).
type Sack struct {
	// WeightCap bounds the summed Weight of packed items (time limit T).
	WeightCap float64
	// VolumeCap bounds the summed Volume of packed items (resource V_p).
	VolumeCap float64
}

// Instance is a full MCMK problem.
type Instance struct {
	Items []Item
	Sacks []Sack
}

// Unassigned marks an item left out of every sack.
const Unassigned = -1

// Solution is an assignment of items to sacks.
type Solution struct {
	// Assignment[i] is the sack index of item i, or Unassigned.
	Assignment []int
	// Value is the summed value of assigned items.
	Value float64
}

// Validate checks instance well-formedness.
func (in *Instance) Validate() error {
	if len(in.Items) == 0 {
		return fmt.Errorf("no items: %w", ErrBadInstance)
	}
	if len(in.Sacks) == 0 {
		return fmt.Errorf("no sacks: %w", ErrBadInstance)
	}
	for i, it := range in.Items {
		if it.Weight < 0 || it.Volume < 0 {
			return fmt.Errorf("item %d has negative size: %w", i, ErrBadInstance)
		}
		if it.Value < 0 {
			return fmt.Errorf("item %d has negative value: %w", i, ErrBadInstance)
		}
	}
	for s, sk := range in.Sacks {
		if sk.WeightCap < 0 || sk.VolumeCap < 0 {
			return fmt.Errorf("sack %d has negative capacity: %w", s, ErrBadInstance)
		}
	}
	return nil
}

// CheckFeasible verifies that an assignment respects every capacity.
func (in *Instance) CheckFeasible(assignment []int) error {
	if len(assignment) != len(in.Items) {
		return fmt.Errorf("assignment length %d vs %d items: %w",
			len(assignment), len(in.Items), ErrBadInstance)
	}
	usedW := make([]float64, len(in.Sacks))
	usedV := make([]float64, len(in.Sacks))
	for i, s := range assignment {
		if s == Unassigned {
			continue
		}
		if s < 0 || s >= len(in.Sacks) {
			return fmt.Errorf("item %d assigned to sack %d: %w", i, s, ErrBadInstance)
		}
		usedW[s] += in.Items[i].Weight
		usedV[s] += in.Items[i].Volume
	}
	const eps = 1e-9
	for s := range in.Sacks {
		if usedW[s] > in.Sacks[s].WeightCap+eps {
			return fmt.Errorf("sack %d weight %.4f > cap %.4f: %w",
				s, usedW[s], in.Sacks[s].WeightCap, ErrBadInstance)
		}
		if usedV[s] > in.Sacks[s].VolumeCap+eps {
			return fmt.Errorf("sack %d volume %.4f > cap %.4f: %w",
				s, usedV[s], in.Sacks[s].VolumeCap, ErrBadInstance)
		}
	}
	return nil
}

// ValueOf sums the value of assigned items.
func (in *Instance) ValueOf(assignment []int) float64 {
	var v float64
	for i, s := range assignment {
		if s != Unassigned {
			v += in.Items[i].Value
		}
	}
	return v
}

// density orders items by value per unit of normalized size, the classic
// greedy criterion; zero-size valuable items sort first.
func (in *Instance) density(i int) float64 {
	it := in.Items[i]
	var maxW, maxV float64
	for _, s := range in.Sacks {
		if s.WeightCap > maxW {
			maxW = s.WeightCap
		}
		if s.VolumeCap > maxV {
			maxV = s.VolumeCap
		}
	}
	size := 0.0
	if maxW > 0 {
		size += it.Weight / maxW
	}
	if maxV > 0 {
		size += it.Volume / maxV
	}
	if size <= 0 {
		size = 1e-12
	}
	return it.Value / size
}

// SolveGreedy packs items in decreasing density into the first sack that
// fits (sacks tried in order of remaining weight capacity, largest first).
// It runs in O(N log N + N·M) and is the building block of the synthetic
// baselines.
func SolveGreedy(in *Instance) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	order := make([]int, len(in.Items))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := in.density(order[a]), in.density(order[b])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	remW := make([]float64, len(in.Sacks))
	remV := make([]float64, len(in.Sacks))
	for s, sk := range in.Sacks {
		remW[s] = sk.WeightCap
		remV[s] = sk.VolumeCap
	}
	assignment := make([]int, len(in.Items))
	for i := range assignment {
		assignment[i] = Unassigned
	}
	sackOrder := make([]int, len(in.Sacks))
	for i := range sackOrder {
		sackOrder[i] = i
	}
	for _, i := range order {
		it := in.Items[i]
		// Prefer the sack with the most remaining weight headroom.
		sort.Slice(sackOrder, func(a, b int) bool {
			if remW[sackOrder[a]] != remW[sackOrder[b]] {
				return remW[sackOrder[a]] > remW[sackOrder[b]]
			}
			return sackOrder[a] < sackOrder[b]
		})
		for _, s := range sackOrder {
			if it.Weight <= remW[s]+1e-12 && it.Volume <= remV[s]+1e-12 {
				assignment[i] = s
				remW[s] -= it.Weight
				remV[s] -= it.Volume
				break
			}
		}
	}
	return &Solution{Assignment: assignment, Value: in.ValueOf(assignment)}, nil
}

// SolveExact finds the optimal assignment by depth-first branch-and-bound.
// The bound is the sum of remaining item values, tightened by density order.
// Instances with more than MaxExactItems items are rejected.
func SolveExact(in *Instance) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if len(in.Items) > MaxExactItems {
		return nil, fmt.Errorf("%d items: %w", len(in.Items), ErrTooLarge)
	}
	order := make([]int, len(in.Items))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return in.density(order[a]) > in.density(order[b]) })
	// suffixValue[k] = total value of items order[k:].
	suffixValue := make([]float64, len(order)+1)
	for k := len(order) - 1; k >= 0; k-- {
		suffixValue[k] = suffixValue[k+1] + in.Items[order[k]].Value
	}
	state := &bbState{
		in:      in,
		order:   order,
		suffix:  suffixValue,
		remW:    make([]float64, len(in.Sacks)),
		remV:    make([]float64, len(in.Sacks)),
		current: make([]int, len(in.Items)),
		best:    make([]int, len(in.Items)),
	}
	for s, sk := range in.Sacks {
		state.remW[s] = sk.WeightCap
		state.remV[s] = sk.VolumeCap
	}
	for i := range state.current {
		state.current[i] = Unassigned
		state.best[i] = Unassigned
	}
	state.search(0, 0)
	return &Solution{Assignment: state.best, Value: state.bestValue}, nil
}

// MaxExactItems bounds SolveExact's input size.
const MaxExactItems = 24

type bbState struct {
	in        *Instance
	order     []int
	suffix    []float64
	remW      []float64
	remV      []float64
	current   []int
	best      []int
	bestValue float64
}

func (b *bbState) search(k int, value float64) {
	if value+b.suffix[k] <= b.bestValue {
		return // even packing everything left cannot beat the incumbent
	}
	if k == len(b.order) {
		if value > b.bestValue {
			b.bestValue = value
			copy(b.best, b.current)
		}
		return
	}
	i := b.order[k]
	it := b.in.Items[i]
	// Branch: place into each sack that fits. De-duplicate sacks with
	// identical remaining capacities to curb symmetric branching.
	type cap2 struct{ w, v float64 }
	seen := make(map[cap2]bool, len(b.remW))
	for s := range b.remW {
		if it.Weight > b.remW[s]+1e-12 || it.Volume > b.remV[s]+1e-12 {
			continue
		}
		c := cap2{b.remW[s], b.remV[s]}
		if seen[c] {
			continue
		}
		seen[c] = true
		b.remW[s] -= it.Weight
		b.remV[s] -= it.Volume
		b.current[i] = s
		b.search(k+1, value+it.Value)
		b.current[i] = Unassigned
		b.remW[s] += it.Weight
		b.remV[s] += it.Volume
	}
	// Branch: skip the item.
	b.search(k+1, value)
}
