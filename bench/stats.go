package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0..1) of an ascending slice by linear
// interpolation between closest ranks; NaN for an empty slice.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// tailPercentile is the highest of the reported percentiles that still has
// at least ten samples beyond it among n samples, so a tail estimate never
// rests on a handful of outliers. Below 100 samples only the median stands.
func tailPercentile(n int) float64 {
	best := 0.5
	for _, perMille := range []int{900, 950, 990, 999} {
		if n*(1000-perMille) >= 10*1000 {
			best = float64(perMille) / 1000
		}
	}
	return best
}

// windowValues splits (at, value) samples into consecutive windows of width
// ns and applies f to each non-empty window's values, in time order.
func windowValues(at []int64, val []float64, width int64, f func([]float64) float64) []float64 {
	if len(at) == 0 || width <= 0 {
		return nil
	}
	buckets := map[int64][]float64{}
	var keys []int64
	for i, t := range at {
		k := t / width
		if _, ok := buckets[k]; !ok {
			keys = append(keys, k)
		}
		buckets[k] = append(buckets[k], val[i])
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	out := make([]float64, 0, len(keys))
	for _, k := range keys {
		out = append(out, f(buckets[k]))
	}
	return out
}

// windowedP99 is the median over the windows of each window's p99: one
// stall lands in one window and cannot move the estimate.
func windowedP99(at []int64, val []float64, width int64) float64 {
	return median(windowValues(at, val, width, func(v []float64) float64 {
		return quantile(sortedCopy(v), 0.99)
	}))
}

// relIQR is the distance between the first and third quartile as a share of
// the median — the spread measure the acceptance rule uses. 0 when it cannot
// be computed.
func relIQR(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	s := sortedCopy(v)
	// statistics.quantiles(n=4) uses the exclusive method: rank p*(n+1).
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(math.Floor(pos))
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	med := q(0.5)
	if med == 0 {
		return 0
	}
	return math.Abs((q(0.75) - q(0.25)) / med)
}

// worsening is how much b is worse than a under the metric's direction and
// bound kind: a share of a, or an absolute difference. Negative is better.
func worsening(m metricSpec, a, b float64) float64 {
	d := b - a
	if m.Higher {
		d = -d
	}
	if m.Abs {
		return d
	}
	if a == 0 {
		if d == 0 {
			return 0
		}
		return math.Inf(int(math.Copysign(1, d)))
	}
	return d / math.Abs(a)
}

// Verdicts of the bound comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies the bound: worse when b is beyond it; unresolved when either
// side is missing or its own within-run spread is wider than the bound, so
// "no change" cannot be told from noise; ok otherwise.
func judge(m metricSpec, a, b, spreadA, spreadB float64) string {
	if math.IsNaN(a) || math.IsNaN(b) {
		return verdictUnresolved
	}
	if worsening(m, a, b) > m.Bound {
		return verdictWorse
	}
	if !m.Abs && math.Max(spreadA, spreadB) > m.Bound {
		return verdictUnresolved
	}
	return verdictOK
}
