package neural

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mathx"
)

// incrementalConfigs spans the shapes the incremental surface must handle:
// ReLU and dense (tanh) hidden layers, output widths on both sides of the
// four-row kernel's remainder loop, and a network with no hidden layer.
func incrementalConfigs() map[string]Config {
	return map[string]Config{
		"relu-2hidden": {Layers: []int{40, 16, 12, 9}, Seed: 21},
		"relu-1hidden": {Layers: []int{30, 24, 7}, Seed: 22},
		"tanh-deep":    {Layers: []int{12, 8, 8, 6, 3}, Hidden: ActTanh, Seed: 23},
		"no-hidden":    {Layers: []int{10, 5}, Seed: 24},
	}
}

// TestForwardTailMatchesForwardBatch feeds the whole input through
// FirstLayerRange — the same ascending-k sweep ForwardBatch makes — and
// requires every output of ForwardTail to be bitwise equal to ForwardBatch on
// the one-row batch, for all outputs and for an output subset.
func TestForwardTailMatchesForwardBatch(t *testing.T) {
	for name, cfg := range incrementalConfigs() {
		t.Run(name, func(t *testing.T) {
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(cfg.Seed))
			for i := range n.layers[0].bias {
				n.layers[0].bias[i] = rng.Float64() - 0.5 // default biases are all zero
			}
			var s TailScratch
			sums := make([]float64, n.FirstLayerSize())
			for trial := 0; trial < 20; trial++ {
				sparse := rng.Float64()
				if trial == 0 {
					sparse = 1 // all-zero input
				}
				x := mathx.NewMatrix(1, n.InputSize())
				copy(x.Row(0), randVec(rng, n.InputSize(), sparse))
				want, err := n.ForwardBatch(x)
				if err != nil {
					t.Fatal(err)
				}
				if err := n.FirstLayerRange(sums, 0, x.Row(0), &s); err != nil {
					t.Fatal(err)
				}
				q := make([]float64, n.OutputSize())
				if err := n.ForwardTail(q, sums, nil, &s); err != nil {
					t.Fatal(err)
				}
				for o, v := range q {
					if math.Float64bits(v) != math.Float64bits(want.At(0, o)) {
						t.Fatalf("trial %d output %d: tail %v, batch %v", trial, o, v, want.At(0, o))
					}
				}
				outs := []int{n.OutputSize() - 1, 0}
				sub := make([]float64, n.OutputSize())
				for o := range sub {
					sub[o] = -7
				}
				if err := n.ForwardTail(sub, sums, outs, &s); err != nil {
					t.Fatal(err)
				}
				for o, v := range sub {
					listed := o == 0 || o == n.OutputSize()-1
					if listed && math.Float64bits(v) != math.Float64bits(want.At(0, o)) {
						t.Fatalf("trial %d subset output %d: tail %v, batch %v", trial, o, v, want.At(0, o))
					}
					if !listed && v != -7 {
						t.Fatalf("trial %d subset wrote unlisted output %d", trial, o)
					}
				}
			}
		})
	}
}

// TestFirstLayerSplitTracksForwardBatch drives the surface the way the
// allocation rollout does — the upper half of the input hoisted once, cells of
// the lower half switched on one at a time in arbitrary order — and checks
// every intermediate output against the full forward. The accumulation order
// differs, so agreement is to rounding, not bitwise.
func TestFirstLayerSplitTracksForwardBatch(t *testing.T) {
	n, err := New(Config{Layers: []int{40, 16, 12, 9}, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	const half = 20
	x := mathx.NewMatrix(1, 40)
	copy(x.Row(0)[half:], randVec(rng, half, 0.7))
	var s TailScratch
	sums := make([]float64, n.FirstLayerSize())
	if err := n.FirstLayerRange(sums, half, x.Row(0)[half:], &s); err != nil {
		t.Fatal(err)
	}
	q := make([]float64, n.OutputSize())
	for _, cell := range append([]int{-1}, rng.Perm(half)...) {
		if cell >= 0 {
			x.Row(0)[cell] = 1
			if err := n.AddFirstLayerColumn(sums, cell); err != nil {
				t.Fatal(err)
			}
		}
		want, err := n.ForwardBatch(x)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.ForwardTail(q, sums, nil, &s); err != nil {
			t.Fatal(err)
		}
		for o, v := range q {
			if d := math.Abs(v - want.At(0, o)); d > 1e-12*(1+math.Abs(v)) {
				t.Fatalf("after cell %d output %d: tail %v, batch %v", cell, o, v, want.At(0, o))
			}
		}
	}
}

// TestIncrementalSteadyStateAllocs: once the scratch has grown, none of the
// three calls allocates.
func TestIncrementalSteadyStateAllocs(t *testing.T) {
	n, err := New(Config{Layers: []int{40, 16, 12, 9}, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(rand.New(rand.NewSource(41)), 20, 0.5)
	var s TailScratch
	sums := make([]float64, n.FirstLayerSize())
	q := make([]float64, n.OutputSize())
	outs := []int{1, 2, 5, 8}
	run := func() {
		if err := n.FirstLayerRange(sums, 20, x, &s); err != nil {
			t.Fatal(err)
		}
		if err := n.AddFirstLayerColumn(sums, 3); err != nil {
			t.Fatal(err)
		}
		if err := n.ForwardTail(q, sums, outs, &s); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("steady-state incremental inference allocates %v times per run", allocs)
	}
}

func TestIncrementalShapeErrors(t *testing.T) {
	n, err := New(Config{Layers: []int{10, 6, 4}, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	var s TailScratch
	sums, q := make([]float64, 6), make([]float64, 4)
	for name, err := range map[string]error{
		"range past input":  n.FirstLayerRange(sums, 8, make([]float64, 3), &s),
		"range short sums":  n.FirstLayerRange(make([]float64, 5), 0, make([]float64, 3), &s),
		"column past input": n.AddFirstLayerColumn(sums, 10),
		"column negative":   n.AddFirstLayerColumn(sums, -1),
		"tail short q":      n.ForwardTail(make([]float64, 3), sums, nil, &s),
		"tail short sums":   n.ForwardTail(q, make([]float64, 5), nil, &s),
	} {
		if !errors.Is(err, ErrBadInput) {
			t.Errorf("%s: got %v, want ErrBadInput", name, err)
		}
	}
	if err := n.ForwardTail(q, sums, []int{4}, &s); err == nil {
		t.Error("tail accepted an output index past the last layer")
	}
}

// TestTrainingStateIsAllocatedByTraining pins the inference footprint: a
// network that is only evaluated — a DQN target, an inference replica — holds
// no optimizer state and no gradient buffers; the first TrainBatch allocates
// both, and an untrained network round-trips through JSON without them.
func TestTrainingStateIsAllocatedByTraining(t *testing.T) {
	// Momentum, so that the first update has optimizer state to allocate: the
	// stateless step (SGD at momentum 0) never allocates any.
	n, err := New(Config{Layers: []int{8, 6, 3}, Momentum: 0.9, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	x := mathx.NewMatrix(2, 8)
	copy(x.Data, randVec(rand.New(rand.NewSource(61)), 16, 0.3))
	if _, err := n.ForwardBatch(x); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Forward(x.Row(0)); err != nil {
		t.Fatal(err)
	}
	if n.batch.gradW != nil || n.batch.deltas != nil {
		t.Fatal("forward pass allocated gradient buffers")
	}
	for li, l := range n.layers {
		if l.vWeights != nil || l.mWeights != nil {
			t.Fatalf("layer %d carries optimizer state before any update", li)
		}
	}
	data, err := n.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Network
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if back.layers[0].vWeights != nil {
		t.Fatal("round trip of an untrained network invented optimizer state")
	}
	clone, err := n.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := clone.CopyStateFrom(n); err != nil {
		t.Fatal(err)
	}
	if clone.layers[0].vWeights != nil {
		t.Fatal("CopyStateFrom of an untrained network invented optimizer state")
	}
	if _, err := n.TrainBatch(x, mathx.NewMatrix(2, 3), nil); err != nil {
		t.Fatal(err)
	}
	if n.batch.gradW == nil || n.layers[0].vWeights == nil {
		t.Fatal("TrainBatch left training state unallocated")
	}
	if err := clone.CopyStateFrom(n); err != nil {
		t.Fatal(err)
	}
	if maxWeightDiff(n, clone) != 0 {
		t.Fatal("CopyStateFrom of a trained network lost state")
	}
}
