package mathx

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 7)
	if m.At(0, 0) != 1 || m.At(1, 2) != 7 || m.At(0, 1) != 0 {
		t.Fatalf("At/Set broken: %v", m.Data)
	}
	r := m.Row(1)
	r[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row should be a view")
	}
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone should be independent")
	}
	m.Fill(3)
	for _, v := range m.Data {
		if v != 3 {
			t.Fatal("Fill incomplete")
		}
	}
	if nm := NewMatrix(-1, 5); nm.Rows != 0 || nm.Cols != 0 {
		t.Fatal("negative dims should clamp to zero")
	}
}

func TestMatrixFromRows(t *testing.T) {
	m, err := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatalf("MatrixFromRows: %v", err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("content wrong: %v", m.Data)
	}
	if _, err := MatrixFromRows([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("ragged rows error = %v, want ErrDimensionMismatch", err)
	}
	empty, err := MatrixFromRows(nil)
	if err != nil || empty.Rows != 0 {
		t.Fatalf("empty rows: %v %v", empty, err)
	}
}

func TestMatrixString(t *testing.T) {
	m, _ := MatrixFromRows([][]float64{{1, 2}})
	if m.String() != "1 2\n" {
		t.Fatalf("String = %q", m.String())
	}
}

func TestSolveRidgeExact(t *testing.T) {
	// y = 2*x0 - x1 exactly; lambda=0 must recover the weights.
	a, _ := MatrixFromRows([][]float64{
		{1, 0}, {0, 1}, {1, 1}, {2, 1},
	})
	y := []float64{2, -1, 1, 3}
	w, err := SolveRidge(a, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(w[0], 2, 1e-9) || !almostEqual(w[1], -1, 1e-9) {
		t.Fatalf("SolveRidge w = %v, want [2 -1]", w)
	}
}

func TestSolveRidgeShrinks(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{{1}, {1}, {1}})
	y := []float64{3, 3, 3}
	w0, err := SolveRidge(a, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	wBig, err := SolveRidge(a, y, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !(math.Abs(wBig[0]) < math.Abs(w0[0])) {
		t.Fatalf("ridge penalty should shrink weights: λ=0 → %v, λ=100 → %v", w0, wBig)
	}
}

func TestSolveRidgeErrors(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{{1, 2}})
	if _, err := SolveRidge(a, []float64{1, 2}, 0); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("rows/targets mismatch error = %v", err)
	}
	// Duplicate column with lambda 0 → singular Gram matrix.
	dup, _ := MatrixFromRows([][]float64{{1, 1}, {2, 2}})
	if _, err := SolveRidge(dup, []float64{1, 2}, 0); err == nil {
		t.Fatal("singular system should error")
	}
	// Regularization rescues it.
	if _, err := SolveRidge(dup, []float64{1, 2}, 1e-3); err != nil {
		t.Fatalf("ridge should regularize singularity: %v", err)
	}
}

// Property: for random well-conditioned diagonal systems the solver inverts
// exactly.
func TestSolveDiagonalProperty(t *testing.T) {
	f := func(d1, d2, y1, y2 float64) bool {
		// Keep diagonals away from zero and values bounded.
		scale := func(v float64) float64 { return 1 + math.Mod(math.Abs(v), 9) }
		bound := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 1
			}
			return math.Mod(v, 1e3)
		}
		a, _ := MatrixFromRows([][]float64{{scale(d1), 0}, {0, scale(d2)}})
		y := []float64{bound(y1), bound(y2)}
		w, err := SolveRidge(a, y, 0)
		if err != nil {
			return false
		}
		// AᵀA w = Aᵀ y → for diagonal A: d² w = d y → w = y/d.
		return almostEqual(w[0], y[0]/scale(d1), 1e-6) && almostEqual(w[1], y[1]/scale(d2), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}
