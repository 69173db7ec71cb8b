// Package mlearn is a from-scratch, stdlib-only machine-learning substrate.
//
// It provides the learners the paper names explicitly: an SVM with the
// squared hinge loss of Eq. (8) for the DCTA local process, AdaBoost and
// random forests as the compared alternatives (§IV-B), ridge regression for
// the per-task COP predictors, kNN for the environment-definition clustering
// of §III-C, and k-means for the offline-mode discussion of §VII.
package mlearn

import (
	"errors"
	"fmt"
	"math/rand"
)

// Common errors shared by learners in this package.
var (
	// ErrEmptyDataset is returned when a learner is fit on no samples.
	ErrEmptyDataset = errors.New("mlearn: empty dataset")
	// ErrNotFitted is returned when predicting with an unfitted model.
	ErrNotFitted = errors.New("mlearn: model not fitted")
	// ErrBadShape is returned when sample dimensions are inconsistent.
	ErrBadShape = errors.New("mlearn: inconsistent dataset shape")
	// ErrDiverged is returned when training drove a parameter to NaN or
	// ±Inf; the model is left unfitted.
	ErrDiverged = errors.New("mlearn: training diverged")
)

// Dataset is a supervised dataset: one feature row per target value.
// For classification, targets hold class labels encoded as float64
// (binary classifiers use -1/+1).
type Dataset struct {
	X [][]float64
	Y []float64
}

// NewDataset validates and wraps the given features/targets.
// The slices are NOT copied; callers keep ownership.
func NewDataset(x [][]float64, y []float64) (*Dataset, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("%d rows vs %d targets: %w", len(x), len(y), ErrBadShape)
	}
	if len(x) == 0 {
		return &Dataset{}, nil
	}
	dim := len(x[0])
	for i, row := range x {
		if len(row) != dim {
			return nil, fmt.Errorf("row %d has %d features, want %d: %w", i, len(row), dim, ErrBadShape)
		}
	}
	return &Dataset{X: x, Y: y}, nil
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Dim returns the feature dimensionality (0 for an empty dataset).
func (d *Dataset) Dim() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Subset returns a dataset referencing the rows at idx.
func (d *Dataset) Subset(idx []int) *Dataset {
	x := make([][]float64, len(idx))
	y := make([]float64, len(idx))
	for i, j := range idx {
		x[i] = d.X[j]
		y[i] = d.Y[j]
	}
	return &Dataset{X: x, Y: y}
}

// Split partitions the dataset into train/test by trainFrac after a
// deterministic shuffle with rng. trainFrac is clamped to [0,1].
func (d *Dataset) Split(rng *rand.Rand, trainFrac float64) (train, test *Dataset) {
	if trainFrac < 0 {
		trainFrac = 0
	}
	if trainFrac > 1 {
		trainFrac = 1
	}
	idx := rng.Perm(d.Len())
	cut := int(trainFrac * float64(len(idx)))
	return d.Subset(idx[:cut]), d.Subset(idx[cut:])
}

// Regressor is a model that predicts a continuous value from features.
type Regressor interface {
	Fit(d *Dataset) error
	Predict(x []float64) (float64, error)
}

// Classifier is a model that predicts a discrete label from features.
// Binary classifiers in this package use -1/+1 labels.
type Classifier interface {
	Fit(d *Dataset) error
	Classify(x []float64) (float64, error)
	// Score returns the raw decision value (margin, vote share, …); the
	// DCTA combiner consumes scores, not hard labels.
	Score(x []float64) (float64, error)
}

// Accuracy returns the fraction of samples in d that c labels correctly.
func Accuracy(c Classifier, d *Dataset) (float64, error) {
	if d.Len() == 0 {
		return 0, ErrEmptyDataset
	}
	hits := 0
	for i, x := range d.X {
		got, err := c.Classify(x)
		if err != nil {
			return 0, fmt.Errorf("classify row %d: %w", i, err)
		}
		if got == d.Y[i] {
			hits++
		}
	}
	return float64(hits) / float64(d.Len()), nil
}
