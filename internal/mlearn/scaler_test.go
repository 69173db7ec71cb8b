package mlearn

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mathx"
)

func TestStandardScaler(t *testing.T) {
	rows := [][]float64{{1, 10}, {2, 20}, {3, 30}}
	var s StandardScaler
	if err := s.Fit(rows); err != nil {
		t.Fatal(err)
	}
	out, err := s.TransformAll(rows)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		col := []float64{out[0][j], out[1][j], out[2][j]}
		if m := mathx.Mean(col); math.Abs(m) > 1e-12 {
			t.Errorf("col %d mean = %v, want 0", j, m)
		}
		if sd := mathx.StdDev(col); math.Abs(sd-1) > 1e-12 {
			t.Errorf("col %d std = %v, want 1", j, sd)
		}
	}
}

func TestStandardScalerConstantFeature(t *testing.T) {
	var s StandardScaler
	if err := s.Fit([][]float64{{5, 1}, {5, 2}}); err != nil {
		t.Fatal(err)
	}
	out, err := s.Transform([]float64{5, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(out[0]) || math.IsInf(out[0], 0) {
		t.Fatalf("constant feature transform = %v", out)
	}
	if out[0] != 0 {
		t.Fatalf("constant feature should center to 0, got %v", out[0])
	}
}

func TestStandardScalerErrors(t *testing.T) {
	var s StandardScaler
	if err := s.Fit(nil); !errors.Is(err, ErrEmptyDataset) {
		t.Fatalf("empty fit err = %v", err)
	}
	if _, err := s.Transform([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("unfitted transform err = %v", err)
	}
	if err := s.Fit([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("ragged fit err = %v", err)
	}
	if err := s.Fit([][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transform([]float64{1}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("dim mismatch err = %v", err)
	}
}
