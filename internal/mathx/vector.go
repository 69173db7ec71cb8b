// Package mathx provides small numeric primitives shared by the learning and
// simulation substrates: dense vectors and matrices, descriptive statistics,
// and deterministic random helpers.
//
// Everything here is intentionally simple and allocation-conscious; the
// learning code paths (SGD loops, tree building, Q-learning updates) are the
// hot paths of the repository.
package mathx

import (
	"errors"
	"math"
)

// ErrDimensionMismatch is returned when two operands have incompatible sizes.
var ErrDimensionMismatch = errors.New("mathx: dimension mismatch")

// Dot returns the inner product of a and b.
// It panics only via index bounds if b is shorter than a.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// AXPY computes dst[i] += alpha*x[i] in place.
func AXPY(alpha float64, x, dst []float64) {
	for i := range x {
		dst[i] += alpha * x[i]
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Add returns a new vector a+b.
func Add(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Sub returns a new vector a-b.
func Sub(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// SquaredDistance returns ||a-b||^2.
func SquaredDistance(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// EuclideanDistance returns ||a-b||.
func EuclideanDistance(a, b []float64) float64 {
	return math.Sqrt(SquaredDistance(a, b))
}

// Clone returns a copy of x. A nil input yields a nil output.
func Clone(x []float64) []float64 {
	if x == nil {
		return nil
	}
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Clamp limits v to the inclusive range [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ArgMax returns the index of the largest element of x, or -1 for empty x.
// Ties resolve to the lowest index.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}

// MaxOf returns the largest element of x, or -Inf for empty x.
func MaxOf(x []float64) float64 {
	if len(x) == 0 {
		return math.Inf(-1)
	}
	return x[ArgMax(x)]
}

// Sum returns the sum of all elements of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}
