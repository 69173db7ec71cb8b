package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStdDev(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(x); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(x); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs should be 0")
	}
}

func TestGiniCoefficient(t *testing.T) {
	if got := GiniCoefficient([]float64{1, 1, 1, 1}); !almostEqual(got, 0, 1e-12) {
		t.Errorf("equal Gini = %v, want 0", got)
	}
	concentrated := GiniCoefficient([]float64{0, 0, 0, 100})
	if concentrated < 0.7 {
		t.Errorf("concentrated Gini = %v, want ≥ 0.7", concentrated)
	}
	if GiniCoefficient(nil) != 0 || GiniCoefficient([]float64{0, 0}) != 0 {
		t.Error("degenerate Gini should be 0")
	}
}

func TestMinTopFractionForShare(t *testing.T) {
	x := []float64{80, 10, 5, 5}
	if got := MinTopFractionForShare(x, 0.8); !almostEqual(got, 0.25, 1e-12) {
		t.Errorf("MinTopFractionForShare = %v, want 0.25", got)
	}
	if got := MinTopFractionForShare([]float64{1, 1}, 1.0); !almostEqual(got, 1, 1e-12) {
		t.Errorf("full share fraction = %v, want 1", got)
	}
	if MinTopFractionForShare(nil, 0.5) != 0 {
		t.Error("empty input should be 0")
	}
	if got := MinTopFractionForShare([]float64{0, 0}, 0.5); got != 1 {
		t.Errorf("zero-total should be 1, got %v", got)
	}
}

// Property: Gini is in [0, 1) for non-negative inputs.
func TestGiniRangeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		x := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				x = append(x, math.Abs(math.Mod(v, 1e6)))
			}
		}
		g := GiniCoefficient(x)
		return g >= -1e-9 && g < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
