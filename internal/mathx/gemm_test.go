package mathx

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// naiveMatMul is the reference triple loop for dst = a·b.
func naiveMatMul(a, b *Matrix) *Matrix {
	dst := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

// naiveTransA is the reference triple loop for dst = aᵀ·b.
func naiveTransA(a, b *Matrix) *Matrix {
	dst := NewMatrix(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Rows; k++ {
				s += a.At(k, i) * b.At(k, j)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

// naiveTransB is the reference triple loop for dst = a·bᵀ.
func naiveTransB(a, b *Matrix) *Matrix {
	dst := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

// randMatrix fills a matrix with values in [-1, 1), zeroing a sparseFrac
// fraction so the zero-skip paths are exercised.
func randMatrix(rng *rand.Rand, rows, cols int, sparseFrac float64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Float64() < sparseFrac {
			continue
		}
		m.Data[i] = rng.Float64()*2 - 1
	}
	return m
}

func matricesClose(t *testing.T, got, want *Matrix, tol float64) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Abs(v-want.Data[i]) > tol {
			t.Fatalf("element %d: got %v, want %v", i, v, want.Data[i])
		}
	}
}

// gemmShapes covers odd/even and degenerate sizes so the 2×2 tile remainder
// paths all run.
var gemmShapes = []struct{ n, k, m int }{
	{1, 1, 1}, {1, 5, 3}, {2, 4, 2}, {3, 7, 5}, {4, 9, 1},
	{5, 3, 8}, {8, 16, 8}, {7, 11, 13}, {16, 30, 17},
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range gemmShapes {
		for _, sparse := range []float64{0, 0.5, 0.95} {
			a := randMatrix(rng, sh.n, sh.k, sparse)
			b := randMatrix(rng, sh.k, sh.m, sparse)
			dst := NewMatrix(sh.n, sh.m)
			dst.Fill(math.NaN()) // kernels must fully overwrite dst
			if err := MatMul(dst, a, b); err != nil {
				t.Fatalf("MatMul %+v: %v", sh, err)
			}
			matricesClose(t, dst, naiveMatMul(a, b), 1e-12)
		}
	}
}

func TestMatMulTransAMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, sh := range gemmShapes {
		for _, sparse := range []float64{0, 0.5, 0.95} {
			a := randMatrix(rng, sh.k, sh.n, sparse)
			b := randMatrix(rng, sh.k, sh.m, sparse)
			dst := NewMatrix(sh.n, sh.m)
			dst.Fill(math.NaN())
			if err := MatMulTransA(dst, a, b); err != nil {
				t.Fatalf("MatMulTransA %+v: %v", sh, err)
			}
			matricesClose(t, dst, naiveTransA(a, b), 1e-12)
		}
	}
}

func TestMatMulTransBMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sh := range gemmShapes {
		for _, sparse := range []float64{0, 0.5} {
			a := randMatrix(rng, sh.n, sh.k, sparse)
			b := randMatrix(rng, sh.m, sh.k, sparse)
			dst := NewMatrix(sh.n, sh.m)
			dst.Fill(math.NaN())
			if err := MatMulTransB(dst, a, b); err != nil {
				t.Fatalf("MatMulTransB %+v: %v", sh, err)
			}
			matricesClose(t, dst, naiveTransB(a, b), 1e-12)
		}
	}
}

func TestMatMulTransBColsMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, sh := range gemmShapes {
		// Column-sparse a: the subset product over a's nonzero columns must
		// equal the dense product.
		a := NewMatrix(sh.n, sh.k)
		for j := 0; j < sh.k; j++ {
			if rng.Float64() < 0.6 {
				continue // whole column stays zero
			}
			for i := 0; i < sh.n; i++ {
				a.Set(i, j, rng.Float64()*2-1)
			}
		}
		b := randMatrix(rng, sh.m, sh.k, 0)
		cols := NonzeroColumns(a, nil)
		dst := NewMatrix(sh.n, sh.m)
		dst.Fill(math.NaN())
		if err := MatMulTransBCols(dst, a, b, cols); err != nil {
			t.Fatalf("MatMulTransBCols %+v: %v", sh, err)
		}
		matricesClose(t, dst, naiveTransB(a, b), 1e-12)
	}
}

// TestMatVecTransBMatchesOneRowGemm pins the batch-of-1 kernel to the batched
// one bit for bit: every output is the same ascending-k sum whether it is
// computed four rows per pass, in the remainder loop, or for an output subset.
func TestMatVecTransBMatchesOneRowGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sentinel := math.Float64bits(math.NaN())
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(90)
		m := 1 + rng.Intn(70) // m%4 covers 0..3 many times over
		sparse := rng.Float64()
		if trial%10 == 0 {
			sparse = 1 // all-zero input
		}
		a := randMatrix(rng, 1, k, sparse)
		b := randMatrix(rng, m, k, 0.1)
		want := NewMatrix(1, m)
		if err := MatMulTransBCols(want, a, b, NonzeroColumns(a, make([]int, 0, k))); err != nil {
			t.Fatal(err)
		}
		var x SparseVec
		x.Compact(a.Row(0), 0)
		got := make([]float64, m)
		if err := MatVecTransB(got, b, &x, nil); err != nil {
			t.Fatalf("trial %d (%dx%d): %v", trial, m, k, err)
		}
		for o := range got {
			if math.Float64bits(got[o]) != math.Float64bits(want.At(0, o)) {
				t.Fatalf("trial %d (%dx%d) output %d: %v, batched %v", trial, m, k, o, got[o], want.At(0, o))
			}
		}
		// An output subset computes exactly the listed rows.
		var rows []int
		listed := make([]bool, m)
		for o := 0; o < m; o++ {
			if rng.Float64() < 0.6 {
				rows = append(rows, o)
				listed[o] = true
			}
		}
		if rows == nil {
			rows = []int{}
		}
		sub := make([]float64, m)
		for o := range sub {
			sub[o] = math.NaN()
		}
		if err := MatVecTransB(sub, b, &x, rows); err != nil {
			t.Fatalf("trial %d subset: %v", trial, err)
		}
		for o := range sub {
			bits := math.Float64bits(sub[o])
			if listed[o] && bits != math.Float64bits(want.At(0, o)) {
				t.Fatalf("trial %d subset output %d: %v, batched %v", trial, o, sub[o], want.At(0, o))
			}
			if !listed[o] && bits != sentinel {
				t.Fatalf("trial %d subset wrote unlisted output %d", trial, o)
			}
		}
	}
}

// TestSparseVecCompactOffset checks that a sub-range of a wider input keeps
// its column numbers, and that Compact reuses its buffers.
func TestSparseVecCompactOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	b := randMatrix(rng, 7, 30, 0)
	full := make([]float64, 30)
	for k := 10; k < 30; k += 3 {
		full[k] = rng.Float64()
	}
	var whole, part SparseVec
	whole.Compact(full, 0)
	part.Compact([]float64{9, 9, 9}, 0) // stale contents must not survive
	part.Compact(full[10:], 10)
	want, got := make([]float64, 7), make([]float64, 7)
	if err := MatVecTransB(want, b, &whole, nil); err != nil {
		t.Fatal(err)
	}
	if err := MatVecTransB(got, b, &part, nil); err != nil {
		t.Fatal(err)
	}
	for o := range want {
		if got[o] != want[o] {
			t.Fatalf("output %d: sub-range %v, whole %v", o, got[o], want[o])
		}
	}
}

func TestMatVecTransBRejectsBadShapes(t *testing.T) {
	b := NewMatrix(4, 5)
	x := &SparseVec{Idx: []int{1, 4}, Val: []float64{1, 2}}
	for name, err := range map[string]error{
		"short dst":        MatVecTransB(make([]float64, 3), b, x, nil),
		"row out of range": MatVecTransB(make([]float64, 4), b, x, []int{0, 4}),
		"col out of range": MatVecTransB(make([]float64, 4), b, &SparseVec{Idx: []int{1, 5}, Val: []float64{1, 2}}, nil),
		"ragged vector":    MatVecTransB(make([]float64, 4), b, &SparseVec{Idx: []int{1}, Val: []float64{1, 2}}, nil),
	} {
		if !errors.Is(err, ErrDimensionMismatch) {
			t.Errorf("%s: got %v, want ErrDimensionMismatch", name, err)
		}
	}
}

func TestGemmDimensionMismatch(t *testing.T) {
	a := NewMatrix(3, 4)
	b := NewMatrix(5, 6)
	dst := NewMatrix(3, 6)
	for name, err := range map[string]error{
		"MatMul":           MatMul(dst, a, b),
		"MatMulTransA":     MatMulTransA(dst, a, b),
		"MatMulTransB":     MatMulTransB(dst, a, b),
		"MatMulTransBCols": MatMulTransBCols(dst, a, b, nil),
	} {
		if !errors.Is(err, ErrDimensionMismatch) {
			t.Errorf("%s: got %v, want ErrDimensionMismatch", name, err)
		}
	}
	// dst shape must match too, even when a·b is conformable.
	if err := MatMul(NewMatrix(3, 5), NewMatrix(4, 2), NewMatrix(2, 6)); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("MatMul wrong dst: got %v, want ErrDimensionMismatch", err)
	}
}

func TestNonzeroColumns(t *testing.T) {
	m := NewMatrix(3, 5)
	m.Set(0, 1, 2)
	m.Set(2, 1, -1)
	m.Set(1, 4, 0.5)
	got := NonzeroColumns(m, nil)
	want := []int{1, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Reuse path: a larger buffer is truncated and refilled.
	buf := make([]int, 0, 16)
	buf = append(buf, 9, 9, 9)
	if again := NonzeroColumns(m, buf); len(again) != 2 || again[0] != 1 || again[1] != 4 {
		t.Fatalf("reused buffer: got %v", again)
	}
	if empty := NonzeroColumns(NewMatrix(2, 3), nil); len(empty) != 0 {
		t.Fatalf("zero matrix: got %v", empty)
	}
}

// TestGemmParallelPath pushes all kernels past parallelThreshold so the
// conc.ForEach row-partitioned path runs (and is exercised under -race), and
// checks the parallel result is identical to the serial one.
func TestGemmParallelPath(t *testing.T) {
	// 260×130 · 130×130 ≈ 4.4M multiply-adds > 1<<21.
	const n, k, m = 260, 130, 130
	rng := rand.New(rand.NewSource(5))
	a := randMatrix(rng, n, k, 0.2)
	b := randMatrix(rng, k, m, 0.2)
	if n*k*m < parallelThreshold {
		t.Fatalf("test shape below parallelThreshold; enlarge it")
	}

	par := NewMatrix(n, m)
	if err := MatMul(par, a, b); err != nil {
		t.Fatal(err)
	}
	ser := NewMatrix(n, m)
	matMulRows(ser, a, b, 0, n)
	matricesClose(t, par, ser, 0) // deterministic: bit-identical

	at := randMatrix(rng, k, n, 0.2)
	parA := NewMatrix(n, m)
	if err := MatMulTransA(parA, at, b); err != nil {
		t.Fatal(err)
	}
	serA := NewMatrix(n, m)
	transARows(serA, at, b, nil, 0, n)
	matricesClose(t, parA, serA, 0)

	bt := randMatrix(rng, m, k, 0.2)
	parB := NewMatrix(n, m)
	if err := MatMulTransB(parB, a, bt); err != nil {
		t.Fatal(err)
	}
	serB := NewMatrix(n, m)
	transBRows(serB, a, bt, nil, 0, n)
	matricesClose(t, parB, serB, 0)
}

// TestGemmDeterministic re-runs a kernel and requires bit-identical output —
// the contract seeded DQN training relies on.
func TestGemmDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randMatrix(rng, 9, 31, 0.3)
	b := randMatrix(rng, 17, 31, 0.3)
	d1 := NewMatrix(9, 17)
	d2 := NewMatrix(9, 17)
	for i := 0; i < 2; i++ {
		if err := MatMulTransB(d1, a, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := MatMulTransB(d2, a, b); err != nil {
		t.Fatal(err)
	}
	for i := range d1.Data {
		if d1.Data[i] != d2.Data[i] {
			t.Fatalf("nondeterministic element %d: %v vs %v", i, d1.Data[i], d2.Data[i])
		}
	}
}

// TestMatMulTransAColsMatchesDense: on the listed columns the column-subset
// kernel is bitwise the dense one, and it writes nowhere else — for random
// shapes and sparsities (the last shape takes the parallel path with either
// list), an empty list and the full list.
func TestMatMulTransAColsMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial, shape := range [][3]int{{1, 1, 1}, {7, 5, 9}, {32, 64, 240}, {16, 3, 50}, {40, 70, 3200}} {
		k, n, m := shape[0], shape[1], shape[2]
		a := randMatrix(rng, k, n, 0.4)
		b := randMatrix(rng, k, m, 0.6)
		dense := NewMatrix(n, m)
		if err := MatMulTransA(dense, a, b); err != nil {
			t.Fatal(err)
		}
		some, all := []int{}, []int{} // nil would ask for the whole product
		for j := 0; j < m; j++ {
			all = append(all, j)
			if rng.Intn(4) == 0 {
				some = append(some, j)
			}
		}
		for name, cols := range map[string][]int{"some": some, "empty": {}, "all": all} {
			const sentinel = 12345.5
			got := NewMatrix(n, m)
			for i := range got.Data {
				got.Data[i] = sentinel
			}
			if err := MatMulTransACols(got, a, b, cols); err != nil {
				t.Fatal(err)
			}
			listed := make([]bool, m)
			for _, j := range cols {
				listed[j] = true
			}
			for i := 0; i < n; i++ {
				for j := 0; j < m; j++ {
					want := sentinel
					if listed[j] {
						want = dense.At(i, j)
					}
					if math.Float64bits(got.At(i, j)) != math.Float64bits(want) {
						t.Fatalf("trial %d (%s): [%d,%d] = %v, want %v (listed %v)",
							trial, name, i, j, got.At(i, j), want, listed[j])
					}
				}
			}
		}
	}
	err := MatMulTransACols(NewMatrix(2, 2), NewMatrix(3, 2), NewMatrix(4, 2), []int{0})
	if !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("shape mismatch err = %v", err)
	}
}

// rowsOfDensity builds a rows×cols matrix whose row r is nonzero in a
// densities[r%len(densities)] fraction of its cells, with a few −0 entries
// (which count as zero) among the rest.
func rowsOfDensity(rng *rand.Rand, rows, cols int, densities []float64) *Matrix {
	m := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		row, d := m.Row(r), densities[r%len(densities)]
		for k := range row {
			switch u := rng.Float64(); {
			case u < d:
				row[k] = rng.Float64()*2 - 1
			case u > 0.98:
				row[k] = math.Copysign(0, -1)
			}
		}
	}
	return m
}

// TestRowSupportScan checks the pattern and live columns one scan records,
// that an overflowing or oversized matrix is refused, and that a refused or
// repeated scan leaves nothing stale behind.
func TestRowSupportScan(t *testing.T) {
	m := NewMatrix(3, 6)
	m.Set(0, 4, 1)
	m.Set(0, 1, -2)
	m.Set(2, 4, 0.5)
	m.Set(2, 5, math.Copysign(0, -1))
	s := NewRowSupport(4, 6, 3)
	live, ok := s.Scan(m, make([]int, 0, 6))
	if !ok {
		t.Fatal("scan of 3 nonzeros refused at capacity 3")
	}
	wantPtr, wantIdx, wantLive := []int{0, 2, 2, 3}, []int32{1, 4, 4}, []int{1, 4}
	if !slices.Equal(s.Ptr, wantPtr) || !slices.Equal(s.Idx, wantIdx) || !slices.Equal(live, wantLive) {
		t.Fatalf("ptr %v idx %v live %v, want %v %v %v", s.Ptr, s.Idx, live, wantPtr, wantIdx, wantLive)
	}
	m.Set(1, 0, 3)
	if live, ok = s.Scan(m, live); ok || len(live) != 0 || s.describes(3, 6) {
		t.Fatalf("scan of 4 nonzeros at capacity 3: ok %v, live %v", ok, live)
	}
	if _, ok = s.Scan(NewMatrix(5, 6), live); ok {
		t.Fatal("scan of 5 rows accepted by a 4-row support")
	}
	m.Set(0, 4, 0)
	m.Set(1, 0, 0)
	if live, ok = s.Scan(m, live); !ok || !slices.Equal(live, []int{1, 4}) {
		t.Fatalf("rescan: ok %v, live %v", ok, live)
	}
	if live, ok = s.Scan(NewMatrix(2, 6), live); !ok || len(live) != 0 || len(s.Idx) != 0 {
		t.Fatalf("zero matrix: ok %v, live %v, idx %v", ok, live, s.Idx)
	}
}

// TestSupportKernelsMatchColumnKernels pins the row-support kernels to the
// column-subset ones bit for bit, on rows from all-zero to fully dense
// (−0 entries included), with and without a live-column list, on a DQN-sized
// batch and on one past parallelThreshold: MatMulTransBSupport and
// MatMulTransBMasked against MatMulTransBCols, MatMulTransASupport against
// MatMulTransACols — and the masked and column-listed kernels write nothing
// else.
func TestSupportKernelsMatchColumnKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	densities := []float64{0, 0.05, 0.5, 1, 0.02}
	for _, sh := range []struct {
		rows, in, out int
		parallel      bool
	}{{1, 7, 5, false}, {32, 900, 64, false}, {13, 30, 3, false}, {300, 800, 40, true}} {
		x := rowsOfDensity(rng, sh.rows, sh.in, densities)
		w := randMatrix(rng, sh.out, sh.in, 0.1)
		w.Data[0] = math.Copysign(0, -1)
		s := NewRowSupport(sh.rows, sh.in, sh.rows*sh.in)
		live, ok := s.Scan(x, nil)
		if !ok {
			t.Fatalf("%+v: scan refused at full capacity", sh)
		}
		if sh.parallel && len(s.Idx)*sh.out < parallelThreshold {
			t.Fatalf("%+v: meant to take the parallel path", sh)
		}

		want := NewMatrix(sh.rows, sh.out)
		if err := MatMulTransBCols(want, x, w, live); err != nil {
			t.Fatal(err)
		}
		dense := NewMatrix(sh.rows, sh.out)
		if err := MatMulTransB(dense, x, w); err != nil {
			t.Fatal(err)
		}
		got := NewMatrix(sh.rows, sh.out)
		if err := MatMulTransBSupport(got, x, s, w); err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "transB support vs cols", got, want, nil)
		bitsEqual(t, "transB support vs dense", got, dense, nil)

		mask := randMatrix(rng, sh.rows, sh.out, 0.7)
		for _, supp := range []*RowSupport{s, nil} {
			masked := NewMatrix(sh.rows, sh.out)
			masked.Fill(math.NaN())
			if err := MatMulTransBMasked(masked, x, supp, w, mask); err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, "transB masked", masked, want, mask)
		}

		delta := rowsOfDensity(rng, sh.rows, sh.out, []float64{0.5, 0, 1})
		for _, cols := range [][]int{live, nil} {
			wantG := NewMatrix(sh.out, sh.in)
			wantG.Fill(12345.5)
			if err := MatMulTransACols(wantG, delta, x, cols); err != nil {
				t.Fatal(err)
			}
			gotG := NewMatrix(sh.out, sh.in)
			gotG.Fill(12345.5)
			if err := MatMulTransASupport(gotG, delta, x, s, cols); err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, "transA support", gotG, wantG, nil)
		}
	}
}

// bitsEqual requires got and want to hold the same bit patterns wherever mask
// (nil: everywhere) is nonzero, and got to keep its NaN fill elsewhere.
func bitsEqual(t *testing.T, what string, got, want, mask *Matrix) {
	t.Helper()
	for i, v := range got.Data {
		if mask != nil && mask.Data[i] == 0 {
			if !math.IsNaN(v) {
				t.Fatalf("%s: wrote unmasked element %d", what, i)
			}
			continue
		}
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, v, want.Data[i])
		}
	}
}

func TestSupportKernelsRejectBadShapes(t *testing.T) {
	x := NewMatrix(3, 4)
	s := NewRowSupport(3, 4, 12)
	if _, ok := s.Scan(x, nil); !ok {
		t.Fatal("scan refused")
	}
	other := NewRowSupport(3, 4, 12)
	w, d := NewMatrix(5, 4), NewMatrix(3, 5)
	for name, err := range map[string]error{
		"support of another matrix": MatMulTransBSupport(NewMatrix(3, 5), x, other, w),
		"transB dst":                MatMulTransBSupport(NewMatrix(3, 4), x, s, w),
		"masked mask":               MatMulTransBMasked(NewMatrix(3, 5), x, s, w, NewMatrix(2, 5)),
		"masked support":            MatMulTransBMasked(NewMatrix(3, 5), x, other, w, NewMatrix(3, 5)),
		"transA dst":                MatMulTransASupport(NewMatrix(4, 4), d, x, s, nil),
		"transA support":            MatMulTransASupport(NewMatrix(5, 4), d, x, other, nil),
	} {
		if !errors.Is(err, ErrDimensionMismatch) {
			t.Errorf("%s: got %v, want ErrDimensionMismatch", name, err)
		}
	}
}
