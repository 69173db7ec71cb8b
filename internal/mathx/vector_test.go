package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestDot(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want float64
	}{
		{name: "empty", a: nil, b: nil, want: 0},
		{name: "unit", a: []float64{1, 0}, b: []float64{0, 1}, want: 0},
		{name: "basic", a: []float64{1, 2, 3}, b: []float64{4, 5, 6}, want: 32},
		{name: "negative", a: []float64{-1, 2}, b: []float64{3, -4}, want: -11},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dot(tt.a, tt.b); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Dot(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestAXPYAndScale(t *testing.T) {
	dst := []float64{1, 2, 3}
	AXPY(2, []float64{1, 1, 1}, dst)
	want := []float64{3, 4, 5}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("AXPY dst = %v, want %v", dst, want)
		}
	}
	Scale(0.5, dst)
	want = []float64{1.5, 2, 2.5}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Scale dst = %v, want %v", dst, want)
		}
	}
}

func TestAddSub(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5}
	if got := Add(a, b); got[0] != 4 || got[1] != 7 {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(b, a); got[0] != 2 || got[1] != 3 {
		t.Errorf("Sub = %v", got)
	}
}

func TestNormAndDistance(t *testing.T) {
	if got := EuclideanDistance([]float64{0, 0}, []float64{3, 4}); !almostEqual(got, 5, 1e-12) {
		t.Errorf("EuclideanDistance = %v, want 5", got)
	}
	if got := SquaredDistance([]float64{1, 1}, []float64{2, 3}); !almostEqual(got, 5, 1e-12) {
		t.Errorf("SquaredDistance = %v, want 5", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := []float64{1, 2, 3}
	cp := Clone(orig)
	cp[0] = 99
	if orig[0] != 1 {
		t.Fatal("Clone shares backing array with original")
	}
	if Clone(nil) != nil {
		t.Fatal("Clone(nil) should be nil")
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		v, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tt := range tests {
		if got := Clamp(tt.v, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v, %v, %v) = %v, want %v", tt.v, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestArgMaxArgMin(t *testing.T) {
	x := []float64{1, 5, 5, -2}
	if got := ArgMax(x); got != 1 {
		t.Errorf("ArgMax = %d, want 1 (first of ties)", got)
	}
	if ArgMax(nil) != -1 {
		t.Error("ArgMax of empty should be -1")
	}
	if !math.IsInf(MaxOf(nil), -1) {
		t.Error("MaxOf of empty should be -Inf")
	}
}

// Property: dot product is symmetric.
func TestDotSymmetryProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		x, y := Dot(a, b), Dot(b, a)
		if math.IsNaN(x) && math.IsNaN(y) {
			return true
		}
		return x == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ||a+b|| <= ||a|| + ||b|| (triangle inequality).
func TestTriangleInequalityProperty(t *testing.T) {
	f := func(raw []float64) bool {
		n := len(raw) / 2
		a, b := raw[:n], raw[n:2*n]
		for _, v := range raw[:2*n] {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip pathological float inputs
			}
		}
		zero := make([]float64, n)
		return EuclideanDistance(zero, Add(a, b)) <= EuclideanDistance(zero, a)+EuclideanDistance(zero, b)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
