package mathx

import (
	"fmt"
	"strings"
)

// Matrix is a dense row-major matrix backed by a single slice.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		rows, cols = 0, 0
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatrixFromRows builds a matrix by copying the given rows.
// All rows must share a length; a mismatch returns an error.
func MatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("matrix from rows: row %d has %d cols, want %d: %w",
				i, len(r), cols, ErrDimensionMismatch)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SolveRidge solves (AᵀA + λI) w = Aᵀy for w via Gaussian elimination with
// partial pivoting. It is the normal-equation path used by the ridge
// regression learner. λ must be ≥ 0; a singular system returns an error.
func SolveRidge(a *Matrix, y []float64, lambda float64) ([]float64, error) {
	if a.Rows != len(y) {
		return nil, fmt.Errorf("solve ridge: %d rows vs %d targets: %w",
			a.Rows, len(y), ErrDimensionMismatch)
	}
	n := a.Cols
	// Gram matrix G = AᵀA + λI and right-hand side b = Aᵀy.
	g := NewMatrix(n, n)
	b := make([]float64, n)
	for r := 0; r < a.Rows; r++ {
		row := a.Row(r)
		for i := 0; i < n; i++ {
			b[i] += row[i] * y[r]
			for j := i; j < n; j++ {
				g.Data[i*n+j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < n; i++ {
		g.Data[i*n+i] += lambda
		for j := 0; j < i; j++ {
			g.Data[i*n+j] = g.Data[j*n+i]
		}
	}
	return solveLinear(g, b)
}

// solveLinear solves g·w = b in place using Gaussian elimination with partial
// pivoting. g and b are clobbered.
func solveLinear(g *Matrix, b []float64) ([]float64, error) {
	n := g.Rows
	if g.Cols != n || len(b) != n {
		return nil, fmt.Errorf("solve linear: non-square or bad rhs: %w", ErrDimensionMismatch)
	}
	const eps = 1e-12
	for col := 0; col < n; col++ {
		// Pivot selection.
		pivot := col
		for r := col + 1; r < n; r++ {
			if abs(g.At(r, col)) > abs(g.At(pivot, col)) {
				pivot = r
			}
		}
		if abs(g.At(pivot, col)) < eps {
			return nil, fmt.Errorf("solve linear: singular system at column %d", col)
		}
		if pivot != col {
			swapRows(g, pivot, col)
			b[pivot], b[col] = b[col], b[pivot]
		}
		inv := 1.0 / g.At(col, col)
		for r := col + 1; r < n; r++ {
			f := g.At(r, col) * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				g.Set(r, c, g.At(r, c)-f*g.At(col, c))
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	w := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= g.At(i, j) * w[j]
		}
		w[i] = s / g.At(i, i)
	}
	return w, nil
}

func swapRows(m *Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
