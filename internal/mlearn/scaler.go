package mlearn

import (
	"fmt"

	"repro/internal/mathx"
)

// StandardScaler standardizes features to zero mean and unit variance,
// feature by feature. Constant features are left centered with scale 1 so
// Transform never divides by zero.
type StandardScaler struct {
	mean  []float64
	scale []float64
}

// Fit estimates per-feature mean and standard deviation from rows.
func (s *StandardScaler) Fit(rows [][]float64) error {
	if len(rows) == 0 {
		return ErrEmptyDataset
	}
	dim := len(rows[0])
	col := make([]float64, len(rows))
	s.mean = make([]float64, dim)
	s.scale = make([]float64, dim)
	for j := 0; j < dim; j++ {
		for i, r := range rows {
			if len(r) != dim {
				return fmt.Errorf("scaler fit row %d: %w", i, ErrBadShape)
			}
			col[i] = r[j]
		}
		s.mean[j] = mathx.Mean(col)
		sd := mathx.StdDev(col)
		if sd == 0 {
			sd = 1
		}
		s.scale[j] = sd
	}
	return nil
}

// Fitted reports whether Fit has been called.
func (s *StandardScaler) Fitted() bool { return s.mean != nil }

// Transform returns a standardized copy of x.
func (s *StandardScaler) Transform(x []float64) ([]float64, error) {
	if !s.Fitted() {
		return nil, ErrNotFitted
	}
	if len(x) != len(s.mean) {
		return nil, fmt.Errorf("scaler transform: %d features, want %d: %w",
			len(x), len(s.mean), ErrBadShape)
	}
	out := make([]float64, len(x))
	for j := range x {
		out[j] = (x[j] - s.mean[j]) / s.scale[j]
	}
	return out, nil
}

// TransformInPlace standardizes x in place — the allocation-free Transform
// used on serving hot paths. The arithmetic is identical to Transform.
func (s *StandardScaler) TransformInPlace(x []float64) error {
	if !s.Fitted() {
		return ErrNotFitted
	}
	if len(x) != len(s.mean) {
		return fmt.Errorf("scaler transform: %d features, want %d: %w",
			len(x), len(s.mean), ErrBadShape)
	}
	for j := range x {
		x[j] = (x[j] - s.mean[j]) / s.scale[j]
	}
	return nil
}

// TransformAll standardizes every row, returning fresh rows.
func (s *StandardScaler) TransformAll(rows [][]float64) ([][]float64, error) {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		t, err := s.Transform(r)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		out[i] = t
	}
	return out, nil
}
