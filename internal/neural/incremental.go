package neural

import (
	"fmt"

	"repro/internal/mathx"
)

// Incremental single-sample inference. A caller whose consecutive inputs
// differ in a few cells — the allocation rollout's [selection ‖ environment]
// state changes by one selection cell per step and never in its environment
// half — keeps the first layer's pre-activation sums itself and pays for the
// first layer once per episode instead of once per step:
//
//	FirstLayerRange      sums = W₀[:, lo:lo+len(x)]·x   (the part that never changes)
//	AddFirstLayerColumn  sums += W₀[:, k]               (input k stepped 0 → 1)
//	ForwardTail          bias, activation and layers 1.. from those sums
//
// None of the three writes to the network: every intermediate lives in the
// caller's TailScratch, so they never disturb Forward's or ForwardBatch's
// scratch. The sums hold no bias. Accumulation order is the caller's —
// ForwardBatch sweeps all of layer 0's nonzero inputs in ascending order,
// a caller that adds columns in another order gets sums that may differ from
// it in the last ulp. From identical layer-0 activations onward ForwardTail
// is bitwise equal to ForwardBatch on a one-row batch.

// TailScratch is the caller-owned workspace of the incremental surface: the
// compacted nonzero inputs of the layer being evaluated and one hidden
// activation row. It grows to the widest layer on first use and is reused
// afterwards, so steady-state calls allocate nothing.
type TailScratch struct {
	in  mathx.SparseVec
	act []float64
}

// layerMatrix is the (out × in) header over layer li's weights.
func (n *Network) layerMatrix(li int) mathx.Matrix {
	l := n.layers[li]
	return mathx.Matrix{Rows: l.out, Cols: l.in, Data: l.weights}
}

// FirstLayerSize returns the width of the first layer: the length of the sums
// the incremental surface works on.
func (n *Network) FirstLayerSize() int { return n.layers[0].out }

// FirstLayerRange overwrites sums (length = first layer width) with the
// contribution of inputs [lo, lo+len(x)) to the first layer's pre-activation:
// sums[o] = Σ_k W₀[o, lo+k]·x[k], ascending k, exact zeros of x skipped.
func (n *Network) FirstLayerRange(sums []float64, lo int, x []float64, s *TailScratch) error {
	l := n.layers[0]
	if len(sums) != l.out || lo < 0 || lo+len(x) > l.in {
		return fmt.Errorf("first layer range: %d sums for %d units, inputs [%d,%d) of %d: %w",
			len(sums), l.out, lo, lo+len(x), l.in, ErrBadInput)
	}
	s.in.Compact(x, lo)
	w := n.layerMatrix(0)
	return mathx.MatVecTransB(sums, &w, &s.in, nil)
}

// AddFirstLayerColumn adds input k's weight column to sums: the first layer's
// pre-activation after input k steps from 0 to 1.
func (n *Network) AddFirstLayerColumn(sums []float64, k int) error {
	l := n.layers[0]
	if len(sums) != l.out || k < 0 || k >= l.in {
		return fmt.Errorf("first layer column: %d sums for %d units, input %d of %d: %w",
			len(sums), l.out, k, l.in, ErrBadInput)
	}
	col := l.weights[k:]
	for o := range sums {
		sums[o] += col[o*l.in]
	}
	return nil
}

// ForwardTail finishes a forward pass from the first layer's pre-activation
// sums (bias not yet added): it applies layer 0's bias and activation, runs
// the remaining layers, and writes the network outputs listed in outs (every
// output when outs is nil) into q, which must have length OutputSize; other
// entries of q are left as they were. Only the listed rows of the last layer
// are evaluated.
func (n *Network) ForwardTail(q, sums []float64, outs []int, s *TailScratch) error {
	if len(sums) != n.layers[0].out || len(q) != n.OutputSize() {
		return fmt.Errorf("forward tail: %d sums for %d units, %d outputs for %d: %w",
			len(sums), n.layers[0].out, len(q), n.OutputSize(), ErrBadInput)
	}
	last := len(n.layers) - 1
	pre := sums // layer li's pre-activation, bias not yet added
	for li := 0; li < last; li++ {
		// Activate layer li straight into the compacted input of layer li+1.
		l := n.layers[li]
		s.in.Idx, s.in.Val = s.in.Idx[:0], s.in.Val[:0]
		for o, v := range pre {
			if a := l.act.apply(v + l.bias[o]); a != 0 {
				s.in.Idx = append(s.in.Idx, o)
				s.in.Val = append(s.in.Val, a)
			}
		}
		var rows []int
		if li+1 == last {
			pre, rows = q, outs
		} else {
			width := n.layers[li+1].out
			if cap(s.act) < width {
				s.act = make([]float64, width)
			}
			pre = s.act[:width]
		}
		w := n.layerMatrix(li + 1)
		if err := mathx.MatVecTransB(pre, &w, &s.in, rows); err != nil {
			return fmt.Errorf("forward tail layer %d: %w", li+1, err)
		}
	}
	return n.layers[last].finish(q, pre, outs)
}

// finish applies the layer's bias and activation to the pre-activation sums
// of the listed outputs (all when outs is nil), writing them into q.
func (l *layer) finish(q, pre []float64, outs []int) error {
	if outs == nil {
		for o, v := range pre {
			q[o] = l.act.apply(v + l.bias[o])
		}
		return nil
	}
	for _, o := range outs {
		if o < 0 || o >= l.out {
			return fmt.Errorf("forward tail: output %d of %d: %w", o, l.out, ErrBadInput)
		}
		q[o] = l.act.apply(pre[o] + l.bias[o])
	}
	return nil
}
