package mlearn

import (
	"fmt"

	"repro/internal/mathx"
)

// Ridge is an L2-regularized linear regressor solved in closed form via the
// normal equations. It is the per-task COP predictor of the MTL substrate:
// cheap to retrain (the paper's tasks are retrained repeatedly, §II-A) and
// well-behaved under the data scarcity the paper motivates.
type Ridge struct {
	// Lambda is the L2 penalty; 0 gives ordinary least squares.
	Lambda float64
	// FitIntercept adds a bias column when true.
	FitIntercept bool

	weights   []float64
	intercept float64
	fitted    bool
}

// NewRidge returns a ridge regressor with intercept fitting enabled.
func NewRidge(lambda float64) *Ridge {
	return &Ridge{Lambda: lambda, FitIntercept: true}
}

// Fit solves (XᵀX + λI)w = Xᵀy.
func (r *Ridge) Fit(d *Dataset) error {
	if d == nil || d.Len() == 0 {
		return ErrEmptyDataset
	}
	rows := d.X
	if r.FitIntercept {
		rows = make([][]float64, d.Len())
		for i, x := range d.X {
			row := make([]float64, len(x)+1)
			copy(row, x)
			row[len(x)] = 1
			rows[i] = row
		}
	}
	m, err := mathx.MatrixFromRows(rows)
	if err != nil {
		return fmt.Errorf("ridge fit: %w", err)
	}
	w, err := mathx.SolveRidge(m, d.Y, r.Lambda)
	if err != nil {
		return fmt.Errorf("ridge fit: %w", err)
	}
	if r.FitIntercept {
		r.weights = w[:len(w)-1]
		r.intercept = w[len(w)-1]
	} else {
		r.weights = w
		r.intercept = 0
	}
	r.fitted = true
	return nil
}

// Predict returns w·x + b.
func (r *Ridge) Predict(x []float64) (float64, error) {
	if !r.fitted {
		return 0, ErrNotFitted
	}
	if len(x) != len(r.weights) {
		return 0, fmt.Errorf("ridge predict: %d features, want %d: %w",
			len(x), len(r.weights), ErrBadShape)
	}
	return mathx.Dot(r.weights, x) + r.intercept, nil
}

// Weights returns a copy of the fitted coefficient vector (without bias).
func (r *Ridge) Weights() []float64 { return mathx.Clone(r.weights) }

var _ Regressor = (*Ridge)(nil)
