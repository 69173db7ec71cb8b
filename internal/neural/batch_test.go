package neural

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mathx"
)

// testConfigs spans the optimizer settings whose batch-1 step must reproduce
// Train exactly.
func testConfigs() map[string]Config {
	return map[string]Config{
		"sgd-plain":    {Layers: []int{6, 10, 4}, Momentum: 0, LearningRate: 0.05, Seed: 11},
		"sgd-momentum": {Layers: []int{6, 10, 4}, Momentum: 0.9, LearningRate: 0.05, Seed: 12},
		"adam":         {Layers: []int{6, 10, 4}, Optimizer: OptAdam, LearningRate: 0.01, Seed: 13},
		"tanh-deep":    {Layers: []int{5, 8, 8, 3}, Hidden: ActTanh, LearningRate: 0.02, Seed: 14},
	}
}

func randVec(rng *rand.Rand, n int, sparseFrac float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Float64() < sparseFrac {
			continue
		}
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

func maxWeightDiff(a, b *Network) float64 {
	var worst float64
	for li := range a.layers {
		for k, w := range a.layers[li].weights {
			if d := math.Abs(w - b.layers[li].weights[k]); d > worst {
				worst = d
			}
		}
		for k, w := range a.layers[li].bias {
			if d := math.Abs(w - b.layers[li].bias[k]); d > worst {
				worst = d
			}
		}
		for k, w := range a.layers[li].vWeights {
			if d := math.Abs(w - b.layers[li].vWeights[k]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestForwardBatchMatchesForward checks the batched forward against per-row
// scalar Forward on dense and sparse inputs.
func TestForwardBatchMatchesForward(t *testing.T) {
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(21))
			for _, sparse := range []float64{0, 0.7, 1} {
				x := mathx.NewMatrix(5, n.InputSize())
				for r := 0; r < x.Rows; r++ {
					copy(x.Row(r), randVec(rng, n.InputSize(), sparse))
				}
				out, err := n.ForwardBatch(x)
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < x.Rows; r++ {
					// Copy: Forward below reuses the network scratch.
					brow := append([]float64(nil), out.Row(r)...)
					want, err := n.Forward(x.Row(r))
					if err != nil {
						t.Fatal(err)
					}
					for o := range want {
						if math.Abs(brow[o]-want[o]) > 1e-12 {
							t.Fatalf("sparse=%v row %d out %d: batch %v, scalar %v",
								sparse, r, o, brow[o], want[o])
						}
					}
					// Re-run the batch since Forward may have clobbered scratch.
					if out, err = n.ForwardBatch(x); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestTrainBatchOneRowMatchesTrain pins the core equivalence: a 1-row
// TrainBatch takes the same optimizer step as Train, with and without masks,
// across many consecutive steps (so momentum/Adam state stays in lockstep).
func TestTrainBatchOneRowMatchesTrain(t *testing.T) {
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := New(cfg) // same seed → identical init
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(31))
			x := mathx.NewMatrix(1, a.InputSize())
			tg := mathx.NewMatrix(1, a.OutputSize())
			mk := mathx.NewMatrix(1, a.OutputSize())
			for step := 0; step < 50; step++ {
				xv := randVec(rng, a.InputSize(), 0.5)
				tv := randVec(rng, a.OutputSize(), 0)
				var mv []float64
				var mkArg *mathx.Matrix
				if step%2 == 1 {
					mv = make([]float64, a.OutputSize())
					mv[rng.Intn(len(mv))] = 1
					copy(mk.Row(0), mv)
					mkArg = mk
				}
				lossA, err := a.Train(xv, tv, mv)
				if err != nil {
					t.Fatal(err)
				}
				copy(x.Row(0), xv)
				copy(tg.Row(0), tv)
				lossB, err := b.TrainBatch(x, tg, mkArg)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(lossA-lossB) > 1e-12 {
					t.Fatalf("step %d: loss %v vs %v", step, lossA, lossB)
				}
			}
			if d := maxWeightDiff(a, b); d > 1e-12 {
				t.Fatalf("parameters diverged by %v after 50 steps", d)
			}
		})
	}
}

// TestDeadColumnsMoveOnlyUnderStatefulOptimizers pins the branch in
// TrainBatch: an input column that is zero across the batch has a zero
// gradient, which leaves its weights alone under plain SGD — the step that
// visits live columns only and keeps no velocity — but not under momentum or
// Adam, whose state from the step before still moves them.
func TestDeadColumnsMoveOnlyUnderStatefulOptimizers(t *testing.T) {
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(41))
			x := mathx.NewMatrix(4, n.InputSize())
			tg := mathx.NewMatrix(4, n.OutputSize())
			for r := 0; r < x.Rows; r++ {
				copy(x.Row(r), randVec(rng, n.InputSize(), 0))
				copy(tg.Row(r), randVec(rng, n.OutputSize(), 0))
			}
			if _, err := n.TrainBatch(x, tg, nil); err != nil {
				t.Fatal(err)
			}
			const dead = 2
			for r := 0; r < x.Rows; r++ {
				x.Row(r)[dead] = 0
			}
			l := n.layers[0]
			before := make([]float64, l.out)
			for o := range before {
				before[o] = l.weights[o*l.in+dead]
			}
			if _, err := n.TrainBatch(x, tg, nil); err != nil {
				t.Fatal(err)
			}
			moved := 0
			for o := range before {
				if l.weights[o*l.in+dead] != before[o] {
					moved++
				}
			}
			if n.stateless() {
				if moved != 0 || l.vWeights != nil {
					t.Fatalf("plain SGD moved %d weights of a dead column (velocity allocated: %v)", moved, l.vWeights != nil)
				}
			} else if moved == 0 {
				t.Fatal("a stateful optimizer left a dead column alone: it took the live-column step")
			}
		})
	}
}

// TestTrainBatchLearnsXOR checks that genuinely batched gradients optimize:
// the canonical non-linearly-separable task driven only through TrainBatch.
func TestTrainBatchLearnsXOR(t *testing.T) {
	n, err := New(Config{
		Layers: []int{2, 8, 1}, Hidden: ActTanh, Output: ActSigmoid,
		LearningRate: 0.5, Momentum: 0.9, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := mathx.MatrixFromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y, _ := mathx.MatrixFromRows([][]float64{{0}, {1}, {1}, {0}})
	var loss float64
	for epoch := 0; epoch < 2000; epoch++ {
		if loss, err = n.TrainBatch(x, y, nil); err != nil {
			t.Fatal(err)
		}
	}
	if loss > 0.05 {
		t.Fatalf("XOR loss %v after training, want < 0.05", loss)
	}
	out, err := n.ForwardBatch(x)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		got := out.Row(r)[0]
		if math.Abs(got-y.Row(r)[0]) > 0.3 {
			t.Fatalf("XOR row %d: predicted %v, want %v", r, got, y.Row(r)[0])
		}
	}
}

// TestTrainBatchSteadyStateAllocs verifies the zero-allocation contract once
// the scratch workspace has warmed up.
func TestTrainBatchSteadyStateAllocs(t *testing.T) {
	n, err := New(Config{Layers: []int{30, 16, 8}, Optimizer: OptAdam, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	x := mathx.NewMatrix(8, n.InputSize())
	tg := mathx.NewMatrix(8, n.OutputSize())
	mk := mathx.NewMatrix(8, n.OutputSize())
	for r := 0; r < 8; r++ {
		copy(x.Row(r), randVec(rng, n.InputSize(), 0.5))
		copy(tg.Row(r), randVec(rng, n.OutputSize(), 0))
		mk.Row(r)[rng.Intn(n.OutputSize())] = 1
	}
	if _, err := n.TrainBatch(x, tg, mk); err != nil { // warm up scratch + Adam buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := n.TrainBatch(x, tg, mk); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state TrainBatch allocates %v objects/run, want 0", allocs)
	}
}

// TestTrainBatchGrowsAndShrinksBatch checks scratch reuse across varying
// batch sizes (grow then shrink) stays correct versus Train on a twin.
func TestTrainBatchGrowsAndShrinksBatch(t *testing.T) {
	cfg := Config{Layers: []int{4, 6, 2}, LearningRate: 0.05, Momentum: 0, Seed: 9}
	a, _ := New(cfg)
	b, _ := New(cfg)
	rng := rand.New(rand.NewSource(51))
	for _, rows := range []int{1, 4, 2, 8, 1} {
		x := mathx.NewMatrix(rows, 4)
		tg := mathx.NewMatrix(rows, 2)
		for r := 0; r < rows; r++ {
			copy(x.Row(r), randVec(rng, 4, 0))
			copy(tg.Row(r), randVec(rng, 2, 0))
		}
		if _, err := a.TrainBatch(x, tg, nil); err != nil {
			t.Fatal(err)
		}
		// Twin: accumulate the same summed gradient by hand via batch-1 calls
		// is NOT equivalent for rows > 1 (one step vs many), so instead check
		// the batched forward of both networks only at rows == 1 steps.
		if rows == 1 {
			if _, err := b.Train(x.Row(0), tg.Row(0), nil); err != nil {
				t.Fatal(err)
			}
			if d := maxWeightDiff(a, b); d > 1e-12 {
				t.Fatalf("rows=1 interleaved: diverged by %v", d)
			}
		} else {
			// Keep the twin in sync by copying parameters.
			if err := b.CopyWeightsFrom(a); err != nil {
				t.Fatal(err)
			}
			for li := range a.layers {
				copy(b.layers[li].vWeights, a.layers[li].vWeights)
				copy(b.layers[li].vBias, a.layers[li].vBias)
			}
		}
	}
}

// TestOptimizerStateRoundTrip trains, snapshots mid-run, restores, and checks
// the restored network continues bit-for-bit identically to the original —
// the property the serialized momentum/Adam state exists to provide.
func TestOptimizerStateRoundTrip(t *testing.T) {
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(61))
			step := func(net *Network, r *rand.Rand) {
				x := randVec(r, net.InputSize(), 0.3)
				tg := randVec(r, net.OutputSize(), 0)
				if _, err := net.Train(x, tg, nil); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 20; i++ {
				step(n, rng)
			}
			blob, err := n.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			var restored Network
			if err := restored.UnmarshalJSON(blob); err != nil {
				t.Fatal(err)
			}
			// Drive both with identical data streams.
			rngA := rand.New(rand.NewSource(62))
			rngB := rand.New(rand.NewSource(62))
			for i := 0; i < 20; i++ {
				step(n, rngA)
				step(&restored, rngB)
			}
			if d := maxWeightDiff(n, &restored); d != 0 {
				t.Fatalf("restored network diverged by %v; optimizer state lost", d)
			}
		})
	}
}

// TestLegacySnapshotLoads checks a pre-optimizer-state snapshot (weights and
// biases only) still restores, with fresh optimizer state.
func TestLegacySnapshotLoads(t *testing.T) {
	legacy := []byte(`{
		"config": {"Layers": [2, 3, 1], "LearningRate": 0.1, "Seed": 1},
		"weights": [[1, 2, 3, 4, 5, 6], [7, 8, 9]],
		"biases": [[0.1, 0.2, 0.3], [0.4]]
	}`)
	var n Network
	if err := n.UnmarshalJSON(legacy); err != nil {
		t.Fatalf("legacy snapshot rejected: %v", err)
	}
	if n.layers[0].weights[5] != 6 || n.layers[1].bias[0] != 0.4 {
		t.Fatal("legacy parameters not restored")
	}
	for li, l := range n.layers {
		for _, v := range l.vWeights {
			if v != 0 {
				t.Fatalf("layer %d: optimizer state not fresh", li)
			}
		}
		if l.mWeights != nil {
			t.Fatalf("layer %d: unexpected Adam buffers", li)
		}
	}
	if _, err := n.Forward([]float64{1, 1}); err != nil {
		t.Fatalf("restored network unusable: %v", err)
	}
}

// TestBatchShapeErrors checks the input validation of the batched entry
// points.
func TestBatchShapeErrors(t *testing.T) {
	n, err := New(Config{Layers: []int{3, 4, 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.ForwardBatch(mathx.NewMatrix(2, 5)); err == nil {
		t.Error("ForwardBatch accepted wrong input width")
	}
	if _, err := n.ForwardBatch(mathx.NewMatrix(0, 3)); err == nil {
		t.Error("ForwardBatch accepted empty batch")
	}
	x := mathx.NewMatrix(2, 3)
	if _, err := n.TrainBatch(x, mathx.NewMatrix(2, 5), nil); err == nil {
		t.Error("TrainBatch accepted wrong target width")
	}
	if _, err := n.TrainBatch(x, mathx.NewMatrix(3, 2), nil); err == nil {
		t.Error("TrainBatch accepted mismatched target rows")
	}
	if _, err := n.TrainBatch(x, mathx.NewMatrix(2, 2), mathx.NewMatrix(1, 2)); err == nil {
		t.Error("TrainBatch accepted mismatched mask rows")
	}
}

// TestVelocityCarryingSnapshotLoads: snapshots written while plain SGD still
// kept a velocity buffer carry v_weights at momentum 0. They load; the buffer,
// which the step never read, is dropped and not written back.
func TestVelocityCarryingSnapshotLoads(t *testing.T) {
	old := []byte(`{
		"config": {"Layers": [2, 3, 1], "LearningRate": 0.1, "Optimizer": 1, "Seed": 1},
		"weights": [[1, 2, 3, 4, 5, 6], [7, 8, 9]],
		"biases": [[0.1, 0.2, 0.3], [0.4]],
		"v_weights": [[1, 1, 1, 1, 1, 1], [1, 1, 1]],
		"v_biases": [[1, 1, 1], [1]]
	}`)
	var n Network
	if err := n.UnmarshalJSON(old); err != nil {
		t.Fatalf("velocity-carrying snapshot rejected: %v", err)
	}
	if n.layers[0].weights[5] != 6 || n.layers[1].bias[0] != 0.4 {
		t.Fatal("parameters not restored")
	}
	if n.layers[0].vWeights != nil {
		t.Fatal("dead velocity buffer restored at momentum 0")
	}
	blob, err := n.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, []byte("v_weights")) {
		t.Fatal("velocity written back at momentum 0")
	}
}

// TestReleaseTrainingKeepsStepsBitwise: the gradient buffers are scratch,
// rewritten before they are read, so dropping them between two steps moves no
// weight — under the stateless live-column step and the dense stateful ones
// alike, with the batch growing after the release — and keeps the optimizer
// state, which is not scratch.
func TestReleaseTrainingKeepsStepsBitwise(t *testing.T) {
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			kept, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			released, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			in, out := cfg.Layers[0], cfg.Layers[len(cfg.Layers)-1]
			rng := rand.New(rand.NewSource(cfg.Seed))
			for step := 0; step < 12; step++ {
				rows := 2 + step/4
				x, y := mathx.NewMatrix(rows, in), mathx.NewMatrix(rows, out)
				copy(x.Data, randVec(rng, rows*in, 0.5))
				copy(y.Data, randVec(rng, rows*out, 0))
				if step%4 == 3 {
					released.ReleaseTraining()
					if released.batch.gradW != nil || released.batch.deltas != nil {
						t.Fatal("released network still holds gradient buffers")
					}
				}
				for _, n := range []*Network{kept, released} {
					if _, err := n.TrainBatch(x, y, nil); err != nil {
						t.Fatal(err)
					}
				}
				if d := maxWeightDiff(kept, released); d != 0 {
					t.Fatalf("step %d: releasing the gradient buffers moved a weight by %g", step, d)
				}
			}
		})
	}
}

// refTrainBatch is TrainBatch as it was built on the column-subset kernels —
// every layer probed with mathx.NonzeroColumns, forwarded with
// MatMulTransBCols over all outputs and differentiated with
// MatMulTransACols — kept as the reference the row-compacted, masked path
// must match bit for bit. It owns its scratch and shares only the optimizer
// update with the code under test.
func refTrainBatch(n *Network, x, target, mask *mathx.Matrix) (float64, error) {
	last := len(n.layers) - 1
	acts, cols, err := refForward(n, x)
	if err != nil {
		return 0, err
	}
	deltas := make([]*mathx.Matrix, len(n.layers))
	for li, l := range n.layers {
		deltas[li] = mathx.NewMatrix(x.Rows, l.out)
	}
	var loss float64
	for k, v := range acts[last].Data {
		m := 1.0
		if mask != nil {
			m = mask.Data[k]
		}
		if m == 0 {
			continue
		}
		diff := v - target.Data[k]
		loss += m * 0.5 * diff * diff
		deltas[last].Data[k] = m * diff * n.layers[last].act.derivative(v)
	}
	for li := last - 1; li >= 0; li-- {
		next := n.layers[li+1]
		if err := mathx.MatMul(deltas[li], deltas[li+1], &mathx.Matrix{Rows: next.out, Cols: next.in, Data: next.weights}); err != nil {
			return 0, err
		}
		for k, av := range acts[li].Data {
			deltas[li].Data[k] *= n.layers[li].act.derivative(av)
		}
	}
	if n.cfg.Optimizer == OptAdam {
		n.adamStep++
	}
	for li, l := range n.layers {
		in := x
		if li > 0 {
			in = acts[li-1]
		}
		var live []int
		if n.stateless() {
			live = cols[li]
		}
		gradW := mathx.NewMatrix(l.out, l.in)
		if err := mathx.MatMulTransACols(gradW, deltas[li], in, live); err != nil {
			return 0, err
		}
		gb := make([]float64, l.out)
		for k, dv := range deltas[li].Data {
			gb[k%l.out] += dv
		}
		n.applyBatchUpdate(l, gradW, gb, mathx.NonzeroColumns(deltas[li], nil), live)
	}
	return loss, nil
}

// refForward is ForwardBatch on the column-subset kernels, returning every
// layer's activations and nonzero input columns.
func refForward(n *Network, x *mathx.Matrix) ([]*mathx.Matrix, [][]int, error) {
	acts := make([]*mathx.Matrix, len(n.layers))
	cols := make([][]int, len(n.layers))
	in := x
	for li, l := range n.layers {
		w := &mathx.Matrix{Rows: l.out, Cols: l.in, Data: l.weights}
		cols[li] = mathx.NonzeroColumns(in, nil)
		c := cols[li]
		if len(c) > int(denseColsFrac*float64(in.Cols)) {
			c = nil
		}
		acts[li] = mathx.NewMatrix(x.Rows, l.out)
		if err := mathx.MatMulTransBCols(acts[li], in, w, c); err != nil {
			return nil, nil, err
		}
		for k, v := range acts[li].Data {
			acts[li].Data[k] = l.act.apply(v + l.bias[k%l.out])
		}
		in = acts[li]
	}
	return acts, cols, nil
}

// TestTrainBatchRowSparseMatchesDense drives TrainBatch and refTrainBatch in
// lockstep at the DQN's shape (900→64→64→51) and a small one, under plain
// SGD, momentum and Adam, on batches of rows that are all zero, ~5%, ~50% or
// fully nonzero — sparse enough for the row-compacted path, dense enough for
// the column kernels, and mixed — including 1-row batches, one-hot and
// fractional masks, rows whose mask is all zero, and no mask. Weights,
// biases, losses and ForwardBatch outputs must stay bitwise equal.
func TestTrainBatchRowSparseMatchesDense(t *testing.T) {
	shapes := map[string][]int{"dqn": {900, 64, 64, 51}, "small": {40, 12, 7}}
	opts := map[string]Config{
		"sgd":      {LearningRate: 0.01},
		"momentum": {LearningRate: 0.01, Momentum: 0.9},
		"adam":     {LearningRate: 0.001, Optimizer: OptAdam},
	}
	mixes := [][]float64{{0.05}, {0, 0.05}, {0.05, 0.5, 1, 0}, {1}, {0.5}}
	for sname, layers := range shapes {
		for oname, cfg := range opts {
			t.Run(sname+"/"+oname, func(t *testing.T) {
				cfg.Layers, cfg.Seed = layers, 3
				got, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(7))
				sparseSteps := 0
				for step := 0; step < 3*len(mixes)*4; step++ {
					rows := []int{32, 1, 5}[step%3]
					mix := mixes[(step/3)%len(mixes)]
					x := mathx.NewMatrix(rows, got.InputSize())
					tg := mathx.NewMatrix(rows, got.OutputSize())
					for r := 0; r < rows; r++ {
						copy(x.Row(r), randVec(rng, x.Cols, 1-mix[r%len(mix)]))
						copy(tg.Row(r), randVec(rng, tg.Cols, 0))
					}
					var mk *mathx.Matrix
					switch step % 4 {
					case 1: // one taken action per row, as the DQN trains
						mk = mathx.NewMatrix(rows, got.OutputSize())
						for r := 0; r < rows; r++ {
							mk.Set(r, rng.Intn(mk.Cols), 1)
						}
					case 2: // fractional weights, every other row masked out
						mk = mathx.NewMatrix(rows, got.OutputSize())
						for r := 0; r < rows; r += 2 {
							for o := range mk.Row(r) {
								if rng.Intn(3) == 0 {
									mk.Set(r, o, rng.Float64())
								}
							}
						}
					case 3: // everything masked out
						mk = mathx.NewMatrix(rows, got.OutputSize())
					}
					lossG, err := got.TrainBatch(x, tg, mk)
					if err != nil {
						t.Fatal(err)
					}
					if got.batch.sparse[0] {
						sparseSteps++
					}
					lossR, err := refTrainBatch(ref, x, tg, mk)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(lossG) != math.Float64bits(lossR) {
						t.Fatalf("step %d: loss %v, reference %v", step, lossG, lossR)
					}
					for li := range got.layers {
						lg, lr := got.layers[li], ref.layers[li]
						for _, p := range [][2][]float64{{lg.weights, lr.weights}, {lg.bias, lr.bias}} {
							for k := range p[0] {
								if math.Float64bits(p[0][k]) != math.Float64bits(p[1][k]) {
									t.Fatalf("step %d layer %d: parameter %d = %v, reference %v", step, li, k, p[0][k], p[1][k])
								}
							}
						}
					}
					out, err := got.ForwardBatch(x)
					if err != nil {
						t.Fatal(err)
					}
					refActs, _, err := refForward(ref, x)
					if err != nil {
						t.Fatal(err)
					}
					refOut := refActs[len(refActs)-1]
					for k, v := range out.Data {
						if math.Float64bits(v) != math.Float64bits(refOut.Data[k]) {
							t.Fatalf("step %d: output %d = %v, reference %v", step, k, v, refOut.Data[k])
						}
					}
				}
				if sparseSteps == 0 {
					t.Fatal("no step took the row-compacted path")
				}
			})
		}
	}
}
