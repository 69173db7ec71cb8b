package knapsack

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func singleSack(capW, capV float64, items ...Item) *Instance {
	return &Instance{Items: items, Sacks: []Sack{{WeightCap: capW, VolumeCap: capV}}}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		in   *Instance
	}{
		{"no items", &Instance{Sacks: []Sack{{}}}},
		{"no sacks", &Instance{Items: []Item{{Value: 1}}}},
		{"negative weight", singleSack(1, 1, Item{Weight: -1})},
		{"negative value", singleSack(1, 1, Item{Value: -1})},
		{"negative cap", &Instance{Items: []Item{{}}, Sacks: []Sack{{WeightCap: -1}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.in.Validate(); !errors.Is(err, ErrBadInstance) {
				t.Errorf("Validate = %v, want ErrBadInstance", err)
			}
		})
	}
	ok := singleSack(1, 1, Item{Value: 1, Weight: 0.5})
	if err := ok.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
}

func TestCheckFeasible(t *testing.T) {
	in := singleSack(10, 5, Item{Weight: 6, Volume: 3}, Item{Weight: 6, Volume: 3})
	if err := in.CheckFeasible([]int{0, Unassigned}); err != nil {
		t.Errorf("feasible rejected: %v", err)
	}
	if err := in.CheckFeasible([]int{0, 0}); !errors.Is(err, ErrBadInstance) {
		t.Errorf("overweight accepted: %v", err)
	}
	if err := in.CheckFeasible([]int{5, Unassigned}); !errors.Is(err, ErrBadInstance) {
		t.Errorf("bad sack index accepted: %v", err)
	}
	if err := in.CheckFeasible([]int{0}); !errors.Is(err, ErrBadInstance) {
		t.Errorf("short assignment accepted: %v", err)
	}
	// Volume overflow.
	if err := in.CheckFeasible([]int{0, Unassigned}); err != nil {
		t.Fatal(err)
	}
	vol := singleSack(100, 2, Item{Volume: 3})
	if err := vol.CheckFeasible([]int{0}); !errors.Is(err, ErrBadInstance) {
		t.Errorf("over-volume accepted: %v", err)
	}
}

func TestSolveExactSimple(t *testing.T) {
	// Classic: capacity 10; items (v=6,w=6), (v=5,w=5), (v=5,w=5).
	// Optimal picks the two 5s (value 10), not the greedy-looking 6.
	in := singleSack(10, 0,
		Item{Value: 6, Weight: 6},
		Item{Value: 5, Weight: 5},
		Item{Value: 5, Weight: 5},
	)
	sol, err := SolveExact(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value != 10 {
		t.Fatalf("exact value = %v, want 10", sol.Value)
	}
	if err := in.CheckFeasible(sol.Assignment); err != nil {
		t.Fatal(err)
	}
}

func TestSolveExactMultipleSacks(t *testing.T) {
	in := &Instance{
		Items: []Item{
			{Value: 10, Weight: 4}, {Value: 9, Weight: 4},
			{Value: 8, Weight: 4}, {Value: 2, Weight: 4},
		},
		Sacks: []Sack{{WeightCap: 8, VolumeCap: 0}, {WeightCap: 4, VolumeCap: 0}},
	}
	sol, err := SolveExact(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value != 27 { // 10+9 in sack 0, 8 in sack 1
		t.Fatalf("exact value = %v, want 27", sol.Value)
	}
	if err := in.CheckFeasible(sol.Assignment); err != nil {
		t.Fatal(err)
	}
}

func TestSolveExactRespectsVolume(t *testing.T) {
	in := singleSack(100, 1,
		Item{Value: 5, Weight: 1, Volume: 1},
		Item{Value: 4, Weight: 1, Volume: 1},
	)
	sol, err := SolveExact(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value != 5 {
		t.Fatalf("volume-bound value = %v, want 5", sol.Value)
	}
}

func TestSolveExactTooLarge(t *testing.T) {
	items := make([]Item, MaxExactItems+1)
	for i := range items {
		items[i] = Item{Value: 1, Weight: 1}
	}
	in := &Instance{Items: items, Sacks: []Sack{{WeightCap: 5}}}
	if _, err := SolveExact(in); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize err = %v", err)
	}
}

func TestSolveGreedyFeasibleAndReasonable(t *testing.T) {
	rng := mathx.NewRand(1)
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(10)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				Value:  rng.Float64(),
				Weight: rng.Float64() * 4,
				Volume: rng.Float64() * 4,
			}
		}
		in := &Instance{
			Items: items,
			Sacks: []Sack{
				{WeightCap: 6, VolumeCap: 6},
				{WeightCap: 3, VolumeCap: 3},
			},
		}
		greedy, err := SolveGreedy(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.CheckFeasible(greedy.Assignment); err != nil {
			t.Fatalf("trial %d: greedy infeasible: %v", trial, err)
		}
		exact, err := SolveExact(in)
		if err != nil {
			t.Fatal(err)
		}
		if greedy.Value > exact.Value+1e-9 {
			t.Fatalf("trial %d: greedy %v beats exact %v", trial, greedy.Value, exact.Value)
		}
		// Density greedy on small instances stays within 50% of optimal.
		if exact.Value > 0 && greedy.Value < 0.5*exact.Value {
			t.Fatalf("trial %d: greedy %v under half of exact %v", trial, greedy.Value, exact.Value)
		}
	}
}

func TestSolveDPMatchesExact(t *testing.T) {
	rng := mathx.NewRand(2)
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(8)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				Value:  float64(1 + rng.Intn(20)),
				Weight: float64(1 + rng.Intn(10)),
			}
		}
		in := &Instance{Items: items, Sacks: []Sack{{WeightCap: float64(5 + rng.Intn(25))}}}
		dp, err := SolveDP(in, 1)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := SolveExact(in)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dp.Value-exact.Value) > 1e-9 {
			t.Fatalf("trial %d: dp %v vs exact %v", trial, dp.Value, exact.Value)
		}
		if err := in.CheckFeasible(dp.Assignment); err != nil {
			t.Fatalf("trial %d: dp infeasible: %v", trial, err)
		}
	}
}

func TestSolveDPValidation(t *testing.T) {
	two := &Instance{
		Items: []Item{{Value: 1, Weight: 1}},
		Sacks: []Sack{{WeightCap: 1}, {WeightCap: 1}},
	}
	if _, err := SolveDP(two, 1); !errors.Is(err, ErrBadInstance) {
		t.Fatalf("two-sack dp err = %v", err)
	}
	vol := singleSack(5, 5, Item{Value: 1, Weight: 1, Volume: 1})
	if _, err := SolveDP(vol, 1); !errors.Is(err, ErrBadInstance) {
		t.Fatalf("volume dp err = %v", err)
	}
	ok := singleSack(5, 0, Item{Value: 1, Weight: 1})
	if sol, err := SolveDP(ok, 0); err != nil || sol.Value != 1 {
		t.Fatalf("scale<=0 should default: %v %v", sol, err)
	}
}

func TestValueOf(t *testing.T) {
	in := singleSack(10, 10, Item{Value: 3}, Item{Value: 4})
	if v := in.ValueOf([]int{0, Unassigned}); v != 3 {
		t.Fatalf("ValueOf = %v", v)
	}
	if v := in.ValueOf([]int{0, 0}); v != 7 {
		t.Fatalf("ValueOf = %v", v)
	}
}

// Property: on random small instances, exact ≥ greedy and both feasible.
func TestExactDominatesGreedyProperty(t *testing.T) {
	rng := mathx.NewRand(3)
	f := func(seed int64) bool {
		r := mathx.NewRand(seed%1000 + 1)
		n := 2 + r.Intn(8)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				Value:  r.Float64() * 10,
				Weight: r.Float64() * 5,
				Volume: r.Float64() * 5,
			}
		}
		m := 1 + r.Intn(3)
		sacks := make([]Sack, m)
		for i := range sacks {
			sacks[i] = Sack{WeightCap: 2 + r.Float64()*6, VolumeCap: 2 + r.Float64()*6}
		}
		in := &Instance{Items: items, Sacks: sacks}
		g, err := SolveGreedy(in)
		if err != nil {
			return false
		}
		e, err := SolveExact(in)
		if err != nil {
			return false
		}
		if in.CheckFeasible(g.Assignment) != nil || in.CheckFeasible(e.Assignment) != nil {
			return false
		}
		return e.Value >= g.Value-1e-9
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// SolveDP solves the single-sack, weight-only special case exactly via the
// classic 0-1 knapsack dynamic program over an integer weight grid.
// Weights and the capacity are scaled by `scale` and truncated to integers;
// volumes must be zero and exactly one sack is required.
func SolveDP(in *Instance, scale float64) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if len(in.Sacks) != 1 {
		return nil, fmt.Errorf("dp needs exactly 1 sack, got %d: %w", len(in.Sacks), ErrBadInstance)
	}
	for i, it := range in.Items {
		if it.Volume != 0 {
			return nil, fmt.Errorf("dp item %d has volume: %w", i, ErrBadInstance)
		}
	}
	if scale <= 0 {
		scale = 1
	}
	capW := int(in.Sacks[0].WeightCap * scale)
	w := make([]int, len(in.Items))
	for i, it := range in.Items {
		w[i] = int(it.Weight * scale)
	}
	// dp[c] = best value using capacity c; keep[i][c] records choices.
	dp := make([]float64, capW+1)
	keep := make([][]bool, len(in.Items))
	for i := range in.Items {
		keep[i] = make([]bool, capW+1)
		for c := capW; c >= w[i]; c-- {
			if cand := dp[c-w[i]] + in.Items[i].Value; cand > dp[c] {
				dp[c] = cand
				keep[i][c] = true
			}
		}
	}
	assignment := make([]int, len(in.Items))
	for i := range assignment {
		assignment[i] = Unassigned
	}
	c := capW
	for i := len(in.Items) - 1; i >= 0; i-- {
		if keep[i][c] {
			assignment[i] = 0
			c -= w[i]
		}
	}
	return &Solution{Assignment: assignment, Value: in.ValueOf(assignment)}, nil
}
