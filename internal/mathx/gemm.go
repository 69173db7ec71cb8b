package mathx

import (
	"fmt"
	"math"

	"repro/internal/conc"
)

// GEMM-shaped kernels for the batched neural/RL training hot path. Three
// layouts cover everything a dense-layer forward/backward needs without ever
// materializing a transpose:
//
//	MatMul       dst = a·b    — back-propagated deltas (Δ_next · W_next)
//	MatMulTransA dst = aᵀ·b   — gradient accumulation (Δᵀ · activations;
//	                            MatMulTransACols: only the listed columns)
//	MatMulTransB dst = a·bᵀ   — batched forward (X · Wᵀ, W row-major out×in)
//
// MatVecTransB is MatMulTransB's batch-of-1 form for single-sample inference
// (one compacted input row, optionally a subset of the outputs).
//
// All kernels overwrite dst, validate shapes, allocate nothing, and use a
// fixed, deterministic accumulation order (ascending k per output element) so
// seeded training runs are bit-for-bit reproducible at a given size. Inputs
// are assumed finite: exact zeros in the streamed operand are skipped, which
// turns the structural sparsity of RL state encodings (binary selection
// matrices, masked Q-targets, dead ReLU units) into proportional time savings
// without changing the result.
//
// Work above parallelThreshold multiply-adds is split row-wise across
// GOMAXPROCS goroutines via conc.ForEach ("optional parallel outer loop");
// below it the kernels run serially and allocation-free, which keeps
// DQN-scale mini-batches suitable for ReportAllocs-verified steady state.

// parallelThreshold is the multiply-add count above which the kernels spread
// dst rows across goroutines. A DQN learn step stays far below: its first
// layer runs the row-support kernels over each row's ~45 nonzeros (32×45×64 ≈
// 92k), and even a dense 32×900×64 product (≈ 1.8M) would stay serial; bulk
// evaluation batches go parallel.
//
// Splitting the learn step does not pay on a 2-CPU host. At 1 << 15 its
// kernels fork over 2 goroutines, still bitwise, but waking a parked CPU
// costs tens of µs per fork, and the step is ~140 µs of kernel work with
// serial gaps between forks: BenchmarkTrainBatch read 420–477 → 446–536 µs
// with 84 allocations per step instead of 0, BenchmarkCRLTrain/paper_scratch
// 119–130 → 118–182 ms (three alternating runs each; DESIGN.md §6).
const parallelThreshold = 1 << 21

// gemmWorkers returns the worker count for a kernel of the given flop count
// and dst row count: 0 (meaning GOMAXPROCS) above the threshold, 1 otherwise.
func gemmWorkers(flops, rows int) int {
	if flops >= parallelThreshold && rows > 1 {
		return 0
	}
	return 1
}

// MatMul computes dst = a·b. Shapes: a is n×k, b is k×m, dst must be n×m.
func MatMul(dst, a, b *Matrix) error {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		return fmt.Errorf("matmul: (%dx%d)·(%dx%d)→(%dx%d): %w",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols, ErrDimensionMismatch)
	}
	workers := gemmWorkers(a.Rows*a.Cols*b.Cols, dst.Rows)
	if workers == 1 {
		matMulRows(dst, a, b, 0, dst.Rows)
		return nil
	}
	return blockedRows(dst.Rows, workers, func(r0, r1 int) {
		matMulRows(dst, a, b, r0, r1)
	})
}

// matMulRows computes dst rows [r0, r1) of a·b in row-axpy (ikj) form:
// dst[i,:] accumulates a[i,k]·b[k,:] for ascending k, skipping zero a[i,k].
func matMulRows(dst, a, b *Matrix, r0, r1 int) {
	for i := r0; i < r1; i++ {
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = 0
		}
		arow := a.Row(i)
		for k, v := range arow {
			if v == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				drow[j] += v * bv
			}
		}
	}
}

// MatMulTransA computes dst = aᵀ·b. Shapes: a is k×n, b is k×m, dst must be
// n×m. Rows of a are streamed once (ascending k), so zero entries of a — e.g.
// masked or dead-unit delta columns — cost one compare each.
func MatMulTransA(dst, a, b *Matrix) error {
	return MatMulTransACols(dst, a, b, nil)
}

// MatMulTransACols computes the listed columns of dst = aᵀ·b and leaves every
// other element of dst as it was; a nil cols is the whole product. A computed
// element is summed exactly as MatMulTransA sums it (ascending k, zero a[k,i]
// skipped), so it is bitwise the dense one. The batched gradient step uses
// this with the input columns that are nonzero somewhere in the mini-batch:
// every other column of Δᵀ·X is exactly zero and is never read.
func MatMulTransACols(dst, a, b *Matrix, cols []int) error {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		return fmt.Errorf("matmul transA: (%dx%d)ᵀ·(%dx%d)→(%dx%d): %w",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols, ErrDimensionMismatch)
	}
	inner := b.Cols
	if cols != nil {
		inner = len(cols)
	}
	workers := gemmWorkers(a.Rows*a.Cols*inner, dst.Rows)
	if workers == 1 {
		transARows(dst, a, b, cols, 0, dst.Rows)
		return nil
	}
	return blockedRows(dst.Rows, workers, func(r0, r1 int) {
		transARows(dst, a, b, cols, r0, r1)
	})
}

// transARows computes dst rows [r0, r1) of aᵀ·b: dst[i,:] += a[k,i]·b[k,:]
// for ascending k, restricted to the row range so parallel workers never
// share output rows, and to the cols subset of every row when cols is non-nil.
func transARows(dst, a, b *Matrix, cols []int, r0, r1 int) {
	for i := r0; i < r1; i++ {
		drow := dst.Row(i)
		if cols == nil {
			for j := range drow {
				drow[j] = 0
			}
		} else {
			for _, j := range cols {
				drow[j] = 0
			}
		}
	}
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i := r0; i < r1; i++ {
			v := arow[i]
			if v == 0 {
				continue
			}
			drow := dst.Row(i)
			if cols == nil {
				for j, bv := range brow {
					drow[j] += v * bv
				}
			} else {
				for _, j := range cols {
					drow[j] += v * brow[j]
				}
			}
		}
	}
}

// MatMulTransB computes dst = a·bᵀ. Shapes: a is n×k, b is m×k, dst must be
// n×m. This is the batched dense-layer forward X·Wᵀ with W stored row-major
// out×in; both operands stream contiguous rows.
func MatMulTransB(dst, a, b *Matrix) error {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		return fmt.Errorf("matmul transB: (%dx%d)·(%dx%d)ᵀ→(%dx%d): %w",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols, ErrDimensionMismatch)
	}
	workers := gemmWorkers(a.Rows*a.Cols*b.Rows, dst.Rows)
	if workers == 1 {
		transBRows(dst, a, b, nil, 0, dst.Rows)
		return nil
	}
	return blockedRows(dst.Rows, workers, func(r0, r1 int) {
		transBRows(dst, a, b, nil, r0, r1)
	})
}

// MatMulTransBCols computes dst = a·bᵀ like MatMulTransB but sums only over
// the given ascending k-column subset, which must index only columns of a
// that are zero elsewhere for the result to equal the full product. The
// batched forward pass uses this to skip input columns that are zero across
// the whole mini-batch (untouched cells of the allocation selection matrix).
// A nil cols is the dense product.
func MatMulTransBCols(dst, a, b *Matrix, cols []int) error {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		return fmt.Errorf("matmul transB cols: (%dx%d)·(%dx%d)ᵀ→(%dx%d): %w",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols, ErrDimensionMismatch)
	}
	inner := a.Cols
	if cols != nil {
		inner = len(cols)
	}
	workers := gemmWorkers(a.Rows*inner*b.Rows, dst.Rows)
	if workers == 1 {
		transBRows(dst, a, b, cols, 0, dst.Rows)
		return nil
	}
	return blockedRows(dst.Rows, workers, func(r0, r1 int) {
		transBRows(dst, a, b, cols, r0, r1)
	})
}

// transBRows computes dst rows [r0, r1) of a·bᵀ with a 2×2 register tile:
// two a-rows × two b-rows per pass, four independent accumulator chains, all
// operand streams contiguous (or forward-strided gathers under a cols
// subset). Remainder rows fall back to single-row dot products.
func transBRows(dst, a, b *Matrix, cols []int, r0, r1 int) {
	i := r0
	for ; i+1 < r1; i += 2 {
		a0, a1 := a.Row(i), a.Row(i+1)
		d0, d1 := dst.Row(i), dst.Row(i+1)
		j := 0
		for ; j+1 < b.Rows; j += 2 {
			b0, b1 := b.Row(j), b.Row(j+1)
			var s00, s01, s10, s11 float64
			if cols == nil {
				for k, bv0 := range b0 {
					bv1 := b1[k]
					av0, av1 := a0[k], a1[k]
					s00 += av0 * bv0
					s01 += av0 * bv1
					s10 += av1 * bv0
					s11 += av1 * bv1
				}
			} else {
				for _, k := range cols {
					av0, av1 := a0[k], a1[k]
					bv0, bv1 := b0[k], b1[k]
					s00 += av0 * bv0
					s01 += av0 * bv1
					s10 += av1 * bv0
					s11 += av1 * bv1
				}
			}
			d0[j], d0[j+1] = s00, s01
			d1[j], d1[j+1] = s10, s11
		}
		for ; j < b.Rows; j++ {
			brow := b.Row(j)
			var s0, s1 float64
			if cols == nil {
				for k, bv := range brow {
					s0 += a0[k] * bv
					s1 += a1[k] * bv
				}
			} else {
				for _, k := range cols {
					s0 += a0[k] * brow[k]
					s1 += a1[k] * brow[k]
				}
			}
			d0[j], d1[j] = s0, s1
		}
	}
	for ; i < r1; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			if cols == nil {
				for k, bv := range brow {
					s += arow[k] * bv
				}
			} else {
				for _, k := range cols {
					s += arow[k] * brow[k]
				}
			}
			drow[j] = s
		}
	}
}

// SparseVec is one input row in compacted form: Idx lists, ascending, the
// positions of its nonzero entries and Val[t] is the entry at Idx[t]. It is
// what MatVecTransB streams; Compact fills it without allocating once the two
// slices have grown to the widest input seen.
type SparseVec struct {
	Idx []int
	Val []float64
}

// Compact resets v to the nonzero entries of x, recording entry k at
// position offset+k so a sub-range of a wider input keeps its column numbers.
func (v *SparseVec) Compact(x []float64, offset int) {
	v.Idx, v.Val = v.Idx[:0], v.Val[:0]
	for k, xv := range x {
		if xv != 0 {
			v.Idx = append(v.Idx, offset+k)
			v.Val = append(v.Val, xv)
		}
	}
}

// MatVecTransB is the batch-of-1 form of MatMulTransBCols: for every row o of
// b listed in rows (every row when rows is nil) it writes
// dst[o] = Σ_t x.Val[t]·b[o, x.Idx[t]], leaving the other entries of dst
// untouched. Four output rows share one pass over x, so four independent
// accumulator chains hide the add latency that bounds transBRows' single-row
// path; each output is still summed in ascending x.Idx order, which makes the
// result bitwise equal to MatMulTransBCols on the one-row batch whose nonzero
// columns are x.Idx.
func MatVecTransB(dst []float64, b *Matrix, x *SparseVec, rows []int) error {
	if len(dst) != b.Rows || len(x.Idx) != len(x.Val) {
		return fmt.Errorf("matvec transB: dst %d for (%dx%d), %d indices for %d values: %w",
			len(dst), b.Rows, b.Cols, len(x.Idx), len(x.Val), ErrDimensionMismatch)
	}
	if n := len(x.Idx); n > 0 && (x.Idx[0] < 0 || x.Idx[n-1] >= b.Cols) {
		return fmt.Errorf("matvec transB: columns [%d,%d] of %d: %w",
			x.Idx[0], x.Idx[n-1], b.Cols, ErrDimensionMismatch)
	}
	count := b.Rows
	if rows != nil {
		count = len(rows)
		for _, o := range rows {
			if o < 0 || o >= b.Rows {
				return fmt.Errorf("matvec transB: row %d of %d: %w", o, b.Rows, ErrDimensionMismatch)
			}
		}
	}
	row := func(i int) int {
		if rows != nil {
			return rows[i]
		}
		return i
	}
	idx, val := x.Idx, x.Val[:len(x.Idx)]
	i := 0
	for ; i+3 < count; i += 4 {
		o0, o1, o2, o3 := row(i), row(i+1), row(i+2), row(i+3)
		b0, b1, b2, b3 := b.Row(o0), b.Row(o1), b.Row(o2), b.Row(o3)
		var s0, s1, s2, s3 float64
		for t, k := range idx {
			v := val[t]
			s0 += v * b0[k]
			s1 += v * b1[k]
			s2 += v * b2[k]
			s3 += v * b3[k]
		}
		dst[o0], dst[o1], dst[o2], dst[o3] = s0, s1, s2, s3
	}
	for ; i < count; i++ {
		o := row(i)
		brow := b.Row(o)
		var s float64
		for t, k := range idx {
			s += val[t] * brow[k]
		}
		dst[o] = s
	}
	return nil
}

// RowSupport is the sparsity pattern of a row-major matrix in compressed-row
// form: row r's nonzero columns are Idx[Ptr[r]:Ptr[r+1]], ascending. The
// values stay in the matrix, so a support costs four bytes per nonzero. A
// mini-batch whose rows are sparse each, but not in the same columns, costs
// the support kernels its own nonzeros instead of its rows times the union of
// their columns.
type RowSupport struct {
	Ptr        []int
	Idx        []int32
	rows, cols int    // shape of the scanned matrix; rows < 0 when invalid
	seen       []bool // per column: listed while building the live columns
}

// NewRowSupport returns a support for matrices of up to rows×cols holding at
// most maxNonzeros nonzeros; it allocates nothing afterwards.
func NewRowSupport(rows, cols, maxNonzeros int) *RowSupport {
	return &RowSupport{
		Ptr:  make([]int, 0, rows+1),
		Idx:  make([]int32, 0, maxNonzeros),
		rows: -1,
		seen: make([]bool, cols),
	}
}

// Scan records the sparsity pattern of m in one row-major pass and returns
// m's nonzero columns, ascending, appended to live[:0]. It reports false —
// leaving the support invalid and live empty — as soon as m turns out larger
// or denser than the support was sized for, so the probe that chooses the
// sparse kernels costs a dense matrix only the prefix it takes to overflow.
func (s *RowSupport) Scan(m *Matrix, live []int) ([]int, bool) {
	s.rows, live = -1, live[:0]
	if m.Rows+1 > cap(s.Ptr) || m.Cols > len(s.seen) {
		return live, false
	}
	ptr, idx := s.Ptr[:m.Rows+1], s.Idx[:0]
	limit := cap(idx)
	ptr[0] = 0
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		k := 0
		for ; k < len(row); k++ {
			// Four +0 entries at a time skip on one test; anything else,
			// a −0 included, falls through to the exact comparison.
			if k+3 < len(row) && math.Float64bits(row[k])|math.Float64bits(row[k+1])|
				math.Float64bits(row[k+2])|math.Float64bits(row[k+3]) == 0 {
				k += 3
				continue
			}
			if row[k] != 0 {
				if len(idx) == limit {
					return live, false
				}
				idx = append(idx, int32(k))
			}
		}
		ptr[r+1] = len(idx)
	}
	s.Ptr, s.Idx, s.rows, s.cols = ptr, idx, m.Rows, m.Cols
	for _, k := range idx {
		s.seen[k] = true
	}
	for k, ok := range s.seen[:m.Cols] {
		if ok {
			live = append(live, k)
			s.seen[k] = false
		}
	}
	return live, true
}

// describes reports whether s holds the pattern of a rows×cols matrix.
func (s *RowSupport) describes(rows, cols int) bool {
	return s != nil && s.rows == rows && s.cols == cols
}

// MatMulTransBSupport computes dst = a·bᵀ like MatMulTransBCols, but sums
// row r of a over its own nonzero columns, which s — scanned from a — lists,
// instead of over a column subset shared by the whole batch. Four rows of b
// share one pass over a row's support, as in MatVecTransB; every element is
// still summed in ascending column order, so the result is bitwise
// MatMulTransBCols's on the batch's nonzero columns: the terms left out are
// 0·b = ±0, and a sum that starts at +0 never becomes −0.
func MatMulTransBSupport(dst, a *Matrix, s *RowSupport, b *Matrix) error {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows || !s.describes(a.Rows, a.Cols) {
		return fmt.Errorf("matmul transB support: (%dx%d)·(%dx%d)ᵀ→(%dx%d): %w",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols, ErrDimensionMismatch)
	}
	workers := gemmWorkers(len(s.Idx)*b.Rows, dst.Rows)
	if workers == 1 {
		transBSupportRows(dst, a, s, b, 0, dst.Rows)
		return nil
	}
	return blockedRows(dst.Rows, workers, func(r0, r1 int) {
		transBSupportRows(dst, a, s, b, r0, r1)
	})
}

// transBSupportRows computes dst rows [r0, r1) of MatMulTransBSupport.
func transBSupportRows(dst, a *Matrix, s *RowSupport, b *Matrix, r0, r1 int) {
	for r := r0; r < r1; r++ {
		arow, drow := a.Row(r), dst.Row(r)
		idx := s.Idx[s.Ptr[r]:s.Ptr[r+1]]
		o := 0
		for ; o+3 < b.Rows; o += 4 {
			b0, b1, b2, b3 := b.Row(o), b.Row(o+1), b.Row(o+2), b.Row(o+3)
			var s0, s1, s2, s3 float64
			for _, k := range idx {
				v := arow[k]
				s0 += v * b0[k]
				s1 += v * b1[k]
				s2 += v * b2[k]
				s3 += v * b3[k]
			}
			drow[o], drow[o+1], drow[o+2], drow[o+3] = s0, s1, s2, s3
		}
		for ; o < b.Rows; o++ {
			brow := b.Row(o)
			var sum float64
			for _, k := range idx {
				sum += arow[k] * brow[k]
			}
			drow[o] = sum
		}
	}
}

// MatMulTransBMasked computes the elements of dst = a·bᵀ where mask is
// nonzero and leaves every other element of dst as it was. Row r of a is
// summed over the columns s lists for it, or over all of them when s is nil;
// either way each computed element is MatMulTransBCols's, bit for bit. A
// training step whose loss reads one output per row pays for that one.
func MatMulTransBMasked(dst, a *Matrix, s *RowSupport, b, mask *Matrix) error {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows ||
		mask.Rows != dst.Rows || mask.Cols != dst.Cols || (s != nil && !s.describes(a.Rows, a.Cols)) {
		return fmt.Errorf("matmul transB masked: (%dx%d)·(%dx%d)ᵀ→(%dx%d), mask %dx%d: %w",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols, mask.Rows, mask.Cols, ErrDimensionMismatch)
	}
	for r := 0; r < a.Rows; r++ {
		arow, drow := a.Row(r), dst.Row(r)
		for o, m := range mask.Row(r) {
			if m == 0 {
				continue
			}
			brow := b.Row(o)
			var sum float64
			if s == nil {
				for k, v := range arow {
					sum += v * brow[k]
				}
			} else {
				for _, k := range s.Idx[s.Ptr[r]:s.Ptr[r+1]] {
					sum += arow[k] * brow[k]
				}
			}
			drow[o] = sum
		}
	}
	return nil
}

// MatMulTransASupport computes the listed columns of dst = aᵀ·b like
// MatMulTransACols, but streams each row of b over its own nonzero columns,
// which s — scanned from b — lists: for ascending k and every i with
// a[k,i] ≠ 0, dst[i,j] += a[k,i]·b[k,j] over row k's support only. Each
// element keeps MatMulTransACols's order of adds and drops only ±0 terms, so
// the result is bitwise its. cols must include every column s lists (the live
// columns Scan returned); nil computes, and first zeroes, the whole of dst.
func MatMulTransASupport(dst, a, b *Matrix, s *RowSupport, cols []int) error {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols || !s.describes(b.Rows, b.Cols) {
		return fmt.Errorf("matmul transA support: (%dx%d)ᵀ·(%dx%d)→(%dx%d): %w",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols, ErrDimensionMismatch)
	}
	workers := gemmWorkers(len(s.Idx)*a.Cols, dst.Rows)
	if workers == 1 {
		transASupportRows(dst, a, b, s, cols, 0, dst.Rows)
		return nil
	}
	return blockedRows(dst.Rows, workers, func(r0, r1 int) {
		transASupportRows(dst, a, b, s, cols, r0, r1)
	})
}

// transASupportRows computes dst rows [r0, r1) of MatMulTransASupport.
func transASupportRows(dst, a, b *Matrix, s *RowSupport, cols []int, r0, r1 int) {
	for i := r0; i < r1; i++ {
		drow := dst.Row(i)
		if cols == nil {
			clear(drow)
			continue
		}
		for _, j := range cols {
			drow[j] = 0
		}
	}
	for k := 0; k < a.Rows; k++ {
		arow, brow := a.Row(k), b.Row(k)
		idx := s.Idx[s.Ptr[k]:s.Ptr[k+1]]
		for i := r0; i < r1; i++ {
			v := arow[i]
			if v == 0 {
				continue
			}
			drow := dst.Row(i)
			for _, j := range idx {
				drow[j] += v * brow[j]
			}
		}
	}
}

// NonzeroColumns appends to buf[:0] the ascending indices of columns of m
// that hold at least one nonzero, and returns the extended slice. It is the
// sparsity probe the batched forward falls back to when a layer's input is
// too dense to row-compact, to decide between the dense and column-subset
// kernels.
func NonzeroColumns(m *Matrix, buf []int) []int {
	buf = buf[:0]
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			if m.Data[i*m.Cols+j] != 0 {
				buf = append(buf, j)
				break
			}
		}
	}
	return buf
}

// blockedRows splits [0, rows) into one contiguous block per worker and runs
// fn on each block via conc.ForEach.
func blockedRows(rows, workers int, fn func(r0, r1 int)) error {
	blocks := conc.Workers(workers)
	if blocks > rows {
		blocks = rows
	}
	per := (rows + blocks - 1) / blocks
	return conc.ForEach(blocks, blocks, func(w int) error {
		r0 := w * per
		r1 := r0 + per
		if r1 > rows {
			r1 = rows
		}
		if r0 < r1 {
			fn(r0, r1)
		}
		return nil
	})
}
