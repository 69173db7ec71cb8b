package mlearn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mathx"
)

// SVM is a linear support vector machine with the squared hinge loss of the
// paper's Eq. (8):
//
//	L_k(w) = ½‖w‖² + ½·max{0, 1 − y_k wᵀx_k}²
//
// trained by stochastic sub-gradient descent with a Pegasos-style decaying
// step size. Labels must be −1/+1. This is the DCTA local process F₂ (§IV-B),
// chosen by the paper over AdaBoost and random forests.
type SVM struct {
	// C scales the data term relative to the ½‖w‖² regularizer.
	C float64
	// Epochs is the number of passes over the training data.
	Epochs int
	// LearningRate is the initial step size; the step at update t is
	// LearningRate / (1 + t·Decay).
	LearningRate float64
	// Decay controls the step-size schedule.
	Decay float64
	// Seed drives the shuffle order; the same seed reproduces training.
	Seed int64

	weights   []float64
	intercept float64
	fitted    bool
}

// NewSVM returns an SVM with the defaults used across the experiments.
// C is chosen so the data term dominates the ½‖w‖² regularizer of Eq. (8)
// on datasets of the experiments' scale.
func NewSVM() *SVM {
	return &SVM{C: 10.0, Epochs: 60, LearningRate: 0.05, Decay: 1e-3, Seed: 1}
}

// Fit trains the SVM on d. Targets must be −1 or +1. A fit that drives any
// weight or the intercept to NaN or ±Inf returns ErrDiverged and leaves the
// SVM unfitted, so a diverged model is never scored with.
func (s *SVM) Fit(d *Dataset) error {
	if d == nil || d.Len() == 0 {
		return ErrEmptyDataset
	}
	for i, y := range d.Y {
		if y != -1 && y != 1 {
			return fmt.Errorf("svm fit: label %v at row %d, want -1/+1: %w", y, i, ErrBadShape)
		}
	}
	dim := d.Dim()
	if len(s.weights) != dim { // allow warm starts of matching dimension
		s.weights = make([]float64, dim)
		s.intercept = 0
	}
	rng := rand.New(rand.NewSource(s.Seed))
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	t := 0
	for epoch := 0; epoch < s.Epochs; epoch++ {
		mathx.Shuffle(rng, idx)
		for _, i := range idx {
			t++
			lr := s.LearningRate / (1 + float64(t)*s.Decay)
			x, y := d.X[i], d.Y[i]
			margin := y * (mathx.Dot(s.weights, x) + s.intercept)
			// Sub-gradient of the Eq. (8) regularizer ½‖w‖² is w.
			mathx.Scale(1-lr, s.weights)
			if margin < 1 {
				// d/dw ½C(1−m)² = −C(1−m)·y·x.
				g := s.C * (1 - margin)
				mathx.AXPY(lr*g*y, x, s.weights)
				s.intercept += lr * g * y
			}
		}
	}
	if !finite(s.intercept) || !finite(s.weights...) {
		s.weights, s.intercept, s.fitted = nil, 0, false
		return fmt.Errorf("svm fit: %w", ErrDiverged)
	}
	s.fitted = true
	return nil
}

// finite reports whether every value is neither NaN nor ±Inf.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Score returns the signed margin wᵀx + b.
func (s *SVM) Score(x []float64) (float64, error) {
	if !s.fitted {
		return 0, ErrNotFitted
	}
	if len(x) != len(s.weights) {
		return 0, fmt.Errorf("svm score: %d features, want %d: %w",
			len(x), len(s.weights), ErrBadShape)
	}
	return mathx.Dot(s.weights, x) + s.intercept, nil
}

// Classify returns +1 for a non-negative margin, else −1.
func (s *SVM) Classify(x []float64) (float64, error) {
	m, err := s.Score(x)
	if err != nil {
		return 0, err
	}
	if m >= 0 {
		return 1, nil
	}
	return -1, nil
}

// Probability squashes the margin through a logistic link, giving a
// calibrated-ish confidence in [0,1] that the label is +1.
func (s *SVM) Probability(x []float64) (float64, error) {
	m, err := s.Score(x)
	if err != nil {
		return 0, err
	}
	return 1 / (1 + math.Exp(-m)), nil
}

// Weights returns a copy of the learned weight vector.
func (s *SVM) Weights() []float64 { return mathx.Clone(s.weights) }

var _ Classifier = (*SVM)(nil)
