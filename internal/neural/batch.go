package neural

import (
	"fmt"
	"math"

	"repro/internal/mathx"
)

// Batched forward/backward passes. A mini-batch is a row-major
// mathx.Matrix (one sample per row); forward, backprop and gradient
// accumulation are expressed as the GEMM kernels of internal/mathx, with one
// optimizer step per batch instead of one per sample. All intermediate
// buffers live in a per-network scratch workspace that grows to the largest
// batch seen and is reused afterwards, so steady-state batched training
// performs zero allocations (guarded by a ReportAllocs benchmark and an
// AllocsPerRun test).
//
// Work follows the inputs' nonzeros. One row-major scan per layer measures
// the input's density: a sparse input (the DQN's one-hot selection and
// environment cells, ~5% nonzero) is compacted to each row's own nonzero
// columns, and the forward product and the weight gradient run over those
// only (mathx.MatMulTransBSupport / MatMulTransASupport); a dense one keeps
// the column-subset or dense kernel. TrainBatch evaluates the last layer only
// where its mask is nonzero — the DQN's one taken action per row. Every path
// sums each element in the same order as the dense kernels, so training is
// bitwise independent of which one ran.
//
// Semantics: TrainBatch applies a single update with the SUMMED gradient of
// ½‖out−target‖² over the batch rows, so TrainBatch on a 1-row batch is the
// same step Train takes (the equivalence is pinned by tests). Output units
// whose delta is zero across the whole batch are skipped by the optimizer,
// exactly generalizing Train's per-sample d==0 skip: masked Q-targets and
// dead ReLU units cost nothing.

// batchScratch is the reusable workspace behind ForwardBatch/TrainBatch. The
// forward half (acts, weights, cols, support) is sized by the first forward; the
// training half (deltas, gradW, gradB, activeO — a second copy of the weights'
// footprint) only by the first TrainBatch, so networks that are never trained
// — DQN target networks, inference replicas — never pay for it.
type batchScratch struct {
	rows      int                 // allocated activation capacity
	trainRows int                 // allocated delta capacity
	acts      []*mathx.Matrix     // per layer: post-activation outputs (rows × out)
	deltas    []*mathx.Matrix     // per layer: backpropagated deltas (rows × out)
	weights   []*mathx.Matrix     // per layer: header over layer.weights (out × in)
	gradW     []*mathx.Matrix     // per layer: summed weight gradients (out × in)
	gradB     [][]float64         // per layer: summed bias gradients
	cols      [][]int             // per layer: nonzero input-column scratch
	support   []*mathx.RowSupport // per layer: the input's row-compacted pattern
	sparse    []bool              // per layer: support holds the current input's pattern
	activeO   []int               // active-output-unit scratch
}

// sparseRowsFrac is the nonzero fraction of a layer's input at or below which
// the batch is row-compacted; it also sizes each layer's support, so the
// compaction scratch is a fixed fraction of the input's footprint.
const sparseRowsFrac = 0.25

// denseColsFrac is the nonzero-column fraction above which an input too dense
// to row-compact takes the dense kernel instead of the column-subset one.
const denseColsFrac = 0.875

// ensureBatch sizes the forward half of the scratch workspace for `rows`
// samples. Weight headers are batch-independent and allocated once;
// activation matrices grow when a larger batch arrives.
func (n *Network) ensureBatch(rows int) {
	s := &n.batch
	if s.weights == nil {
		s.weights = make([]*mathx.Matrix, len(n.layers))
		s.cols = make([][]int, len(n.layers))
		s.acts = make([]*mathx.Matrix, len(n.layers))
		s.support = make([]*mathx.RowSupport, len(n.layers))
		s.sparse = make([]bool, len(n.layers))
		for li, l := range n.layers {
			s.weights[li] = &mathx.Matrix{Rows: l.out, Cols: l.in, Data: l.weights}
			s.cols[li] = make([]int, 0, l.in)
			s.acts[li] = &mathx.Matrix{Cols: l.out}
		}
	}
	for li, l := range n.layers {
		// Weight slices are stable across training but replaced by
		// deserialization; re-point the headers cheaply every call.
		s.weights[li].Data = l.weights
		if rows > s.rows {
			s.acts[li].Data = make([]float64, rows*l.out)
			s.support[li] = mathx.NewRowSupport(rows, l.in, int(sparseRowsFrac*float64(rows*l.in)))
		}
		s.acts[li].Rows = rows
		s.acts[li].Data = s.acts[li].Data[:rows*l.out]
	}
	if rows > s.rows {
		s.rows = rows
	}
}

// ReserveBatch sizes the forward workspace for batches of up to rows samples,
// for a caller whose batch sizes vary and who wants no later forward to grow
// it (the DQN's target network sees between one and BatchSize rows a step).
func (n *Network) ReserveBatch(rows int) { n.ensureBatch(rows) }

// ensureTrain sizes the training half of the scratch workspace: gradient
// buffers once, delta matrices whenever a larger batch arrives.
func (n *Network) ensureTrain(rows int) {
	s := &n.batch
	if s.gradW == nil {
		s.gradW = make([]*mathx.Matrix, len(n.layers))
		s.gradB = make([][]float64, len(n.layers))
		s.deltas = make([]*mathx.Matrix, len(n.layers))
		for li, l := range n.layers {
			s.gradW[li] = mathx.NewMatrix(l.out, l.in)
			s.gradB[li] = make([]float64, l.out)
			s.deltas[li] = &mathx.Matrix{Cols: l.out}
		}
		s.activeO = make([]int, 0, n.OutputSize())
	}
	for li, l := range n.layers {
		if rows > s.trainRows {
			s.deltas[li].Data = make([]float64, rows*l.out)
		}
		s.deltas[li].Rows = rows
		s.deltas[li].Data = s.deltas[li].Data[:rows*l.out]
	}
	if rows > s.trainRows {
		s.trainRows = rows
	}
}

// ReleaseTraining drops the training half of the scratch workspace — pure
// scratch, rewritten before it is read — so a network that is done learning
// holds its weights and forward buffers only. The next TrainBatch sizes it
// again.
func (n *Network) ReleaseTraining() {
	s := &n.batch
	s.deltas, s.gradW, s.gradB, s.activeO = nil, nil, nil, nil
	s.trainRows = 0
}

// forwardBatch runs the batched forward pass, leaving per-layer activations,
// nonzero-column lists and row supports in the scratch workspace. A non-nil
// mask restricts the last layer to the outputs it enables; the others are
// left stale.
func (n *Network) forwardBatch(x, mask *mathx.Matrix) error {
	if x.Cols != n.InputSize() {
		return fmt.Errorf("forward batch: got %d input cols, want %d: %w",
			x.Cols, n.InputSize(), ErrBadInput)
	}
	if x.Rows < 1 {
		return fmt.Errorf("forward batch: empty batch: %w", ErrBadInput)
	}
	n.ensureBatch(x.Rows)
	s := &n.batch
	last := len(n.layers) - 1
	in := x
	for li, l := range n.layers {
		supp := s.support[li]
		s.cols[li], s.sparse[li] = supp.Scan(in, s.cols[li])
		if !s.sparse[li] {
			// Too dense to compact: probe for all-zero columns instead.
			s.cols[li] = mathx.NonzeroColumns(in, s.cols[li])
			supp = nil
		}
		out := s.acts[li]
		masked := li == last && mask != nil
		var err error
		switch {
		case masked:
			err = mathx.MatMulTransBMasked(out, in, supp, s.weights[li], mask)
		case supp != nil:
			err = mathx.MatMulTransBSupport(out, in, supp, s.weights[li])
		default:
			cols := s.cols[li]
			if len(cols) > int(denseColsFrac*float64(in.Cols)) {
				cols = nil
			}
			err = mathx.MatMulTransBCols(out, in, s.weights[li], cols)
		}
		if err != nil {
			return fmt.Errorf("forward batch layer %d: %w", li, err)
		}
		for r := 0; r < out.Rows; r++ {
			row := out.Row(r)
			var mrow []float64
			if masked {
				mrow = mask.Row(r)
			}
			for o := range row {
				if mrow == nil || mrow[o] != 0 {
					row[o] = l.act.apply(row[o] + l.bias[o])
				}
			}
		}
		in = out
	}
	return nil
}

// ForwardBatch evaluates the network on every row of x and returns the
// (batch × OutputSize) output activations. The returned matrix is scratch
// owned by the network, valid until the next Forward*/Train* call; callers
// that need to keep it must copy.
func (n *Network) ForwardBatch(x *mathx.Matrix) (*mathx.Matrix, error) {
	if err := n.forwardBatch(x, nil); err != nil {
		return nil, err
	}
	return n.batch.acts[len(n.layers)-1], nil
}

// TrainBatch runs one optimizer step on the mini-batch (x, target),
// minimizing the summed ½‖out − target‖² over rows, with an optional
// per-element output mask sharing Train's semantics: mask[r][o] == 0
// disables that output, and fractional masks scale its loss and gradient
// (prioritized replay's importance-sampling weights; exactly 1 is a bitwise
// no-op, so plain 0/1 masks — how the DQN trains one action's Q-value per
// transition — remain a pure gate). It returns the summed masked squared
// error. A 1-row batch takes exactly the step Train takes.
func (n *Network) TrainBatch(x, target, mask *mathx.Matrix) (float64, error) {
	if target.Cols != n.OutputSize() || target.Rows != x.Rows {
		return 0, fmt.Errorf("train batch: target %dx%d for batch %d, output %d: %w",
			target.Rows, target.Cols, x.Rows, n.OutputSize(), ErrBadInput)
	}
	if mask != nil && (mask.Cols != n.OutputSize() || mask.Rows != x.Rows) {
		return 0, fmt.Errorf("train batch: mask %dx%d for batch %d, output %d: %w",
			mask.Rows, mask.Cols, x.Rows, n.OutputSize(), ErrBadInput)
	}
	if err := n.forwardBatch(x, mask); err != nil {
		return 0, err
	}
	n.ensureTrain(x.Rows)
	s := &n.batch
	last := len(n.layers) - 1
	out := s.acts[last]
	dl := s.deltas[last]
	lastAct := n.layers[last].act
	var loss float64
	for r := 0; r < out.Rows; r++ {
		orow, trow, drow := out.Row(r), target.Row(r), dl.Row(r)
		var mrow []float64
		if mask != nil {
			mrow = mask.Row(r)
		}
		for o, v := range orow {
			if mrow != nil && mrow[o] == 0 {
				drow[o] = 0
				continue
			}
			w := 1.0
			if mrow != nil {
				w = mrow[o]
			}
			diff := v - trow[o]
			loss += w * 0.5 * diff * diff
			drow[o] = w * diff * lastAct.derivative(v)
		}
	}
	// Backpropagate deltas: Δ_l = (Δ_{l+1} · W_{l+1}) ⊙ act'(A_l).
	for li := last - 1; li >= 0; li-- {
		l := n.layers[li]
		if err := mathx.MatMul(s.deltas[li], s.deltas[li+1], s.weights[li+1]); err != nil {
			return 0, fmt.Errorf("train batch backprop layer %d: %w", li, err)
		}
		d, a := s.deltas[li].Data, s.acts[li].Data
		for k, av := range a {
			d[k] *= l.act.derivative(av)
		}
	}
	// Accumulate summed gradients as GEMMs and take one optimizer step. A
	// row-compacted input streams each row's own nonzeros; a denser one the
	// whole row or the batch's live columns. An input column that is zero
	// across the batch has an exactly-zero gradient column, which moves
	// nothing only when the step is stateless (SGD without momentum): then
	// the gradient is accumulated and applied over the live columns
	// forwardBatch listed, and the rest of gradW is never read. Momentum and
	// Adam keep moving a weight whose gradient is zero, so they take the
	// dense step.
	adam := n.cfg.Optimizer == OptAdam
	if adam {
		n.adamStep++
	}
	for li, l := range n.layers {
		in := x
		if li > 0 {
			in = s.acts[li-1]
		}
		var live []int
		if n.stateless() {
			live = s.cols[li]
		}
		var err error
		if s.sparse[li] {
			err = mathx.MatMulTransASupport(s.gradW[li], s.deltas[li], in, s.support[li], live)
		} else {
			err = mathx.MatMulTransACols(s.gradW[li], s.deltas[li], in, live)
		}
		if err != nil {
			return 0, fmt.Errorf("train batch gradient layer %d: %w", li, err)
		}
		gb := s.gradB[li]
		for o := range gb {
			gb[o] = 0
		}
		for r := 0; r < s.deltas[li].Rows; r++ {
			for o, dv := range s.deltas[li].Row(r) {
				gb[o] += dv
			}
		}
		// Units whose delta column is zero across the batch get no update —
		// the batched form of Train's per-sample d==0 skip.
		s.activeO = mathx.NonzeroColumns(s.deltas[li], s.activeO)
		n.applyBatchUpdate(l, s.gradW[li], gb, s.activeO, live)
	}
	return loss, nil
}

// applyBatchUpdate advances layer l one optimizer step along the summed
// batch gradient, restricted to the active output units and, on the stateless
// step, to the live input columns. The update formulas mirror applyUpdate
// exactly so 1-row batches reproduce Train's step.
func (n *Network) applyBatchUpdate(l *layer, gradW *mathx.Matrix, gradB []float64, active, live []int) {
	lr, mom := n.cfg.LearningRate, n.cfg.Momentum
	if n.stateless() {
		for _, o := range active {
			w, grow := l.weights[o*l.in:(o+1)*l.in], gradW.Row(o)
			for _, i := range live {
				w[i] -= lr * grow[i]
			}
			l.bias[o] -= lr * gradB[o]
		}
		return
	}
	adam := n.cfg.Optimizer == OptAdam
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	l.ensureOptState(adam)
	var c1, c2 float64
	if adam {
		c1 = 1 - math.Pow(beta1, float64(n.adamStep))
		c2 = 1 - math.Pow(beta2, float64(n.adamStep))
	}
	for _, o := range active {
		base := o * l.in
		grow := gradW.Row(o)
		if adam {
			for i, g := range grow {
				k := base + i
				l.vWeights[k] = beta1*l.vWeights[k] + (1-beta1)*g
				l.mWeights[k] = beta2*l.mWeights[k] + (1-beta2)*g*g
				l.weights[k] -= lr * (l.vWeights[k] / c1) /
					(math.Sqrt(l.mWeights[k]/c2) + eps)
			}
			g := gradB[o]
			l.vBias[o] = beta1*l.vBias[o] + (1-beta1)*g
			l.mBias[o] = beta2*l.mBias[o] + (1-beta2)*g*g
			l.bias[o] -= lr * (l.vBias[o] / c1) / (math.Sqrt(l.mBias[o]/c2) + eps)
			continue
		}
		for i, g := range grow {
			l.vWeights[base+i] = mom*l.vWeights[base+i] - lr*g
			l.weights[base+i] += l.vWeights[base+i]
		}
		l.vBias[o] = mom*l.vBias[o] - lr*gradB[o]
		l.bias[o] += l.vBias[o]
	}
}
