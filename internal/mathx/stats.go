package mathx

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x, or 0 for empty x.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return Sum(x) / float64(len(x))
}

// Variance returns the population variance of x, or 0 for len(x) < 2.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// StdDev returns the population standard deviation of x.
func StdDev(x []float64) float64 {
	return math.Sqrt(Variance(x))
}

// GiniCoefficient measures the inequality of the non-negative values in x.
// 0 means perfectly equal; values near 1 mean a long-tail concentration.
// It is used to quantify the paper's Observation 1 (long-tail importance).
func GiniCoefficient(x []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	s := Clone(x)
	sort.Float64s(s)
	var cum, total float64
	for i, v := range s {
		cum += float64(i+1) * v
		total += v
	}
	if total == 0 {
		return 0
	}
	return (2*cum/(float64(n)*total) - float64(n+1)/float64(n))
}

// MinTopFractionForShare returns the smallest fraction of elements (largest
// first) whose combined contribution reaches `share` of the total.
func MinTopFractionForShare(x []float64, share float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	s := Clone(x)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	total := Sum(s)
	if total <= 0 {
		return 1
	}
	target := Clamp(share, 0, 1) * total
	var cum float64
	for i, v := range s {
		cum += v
		if cum >= target {
			return float64(i+1) / float64(n)
		}
	}
	return 1
}
