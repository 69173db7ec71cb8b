package mlearn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Tree is a CART-style regression tree minimizing weighted squared error.
// With −1/+1 labels the leaf mean acts as a soft class score, which lets the
// same implementation back both the random forest and (at depth 1, with
// sample weights) the AdaBoost weak learner.
type Tree struct {
	// MaxDepth bounds tree depth; 1 yields a decision stump.
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf.
	MinLeaf int
	// FeatureFrac, when in (0,1], restricts each split search to a random
	// subset of features — the random-forest de-correlation device.
	FeatureFrac float64
	// Rng drives feature subsampling; nil means all features are considered.
	Rng *rand.Rand

	root   *treeNode
	dim    int
	fitted bool
}

type treeNode struct {
	feature     int
	threshold   float64
	left, right *treeNode
	value       float64
	leaf        bool
}

// Fit grows the tree on d with uniform sample weights.
func (t *Tree) Fit(d *Dataset) error {
	if d == nil || d.Len() == 0 {
		return ErrEmptyDataset
	}
	w := make([]float64, d.Len())
	for i := range w {
		w[i] = 1
	}
	return t.FitWeighted(d, w)
}

// FitWeighted grows the tree with per-sample weights (AdaBoost's interface).
func (t *Tree) FitWeighted(d *Dataset, weights []float64) error {
	if d == nil || d.Len() == 0 {
		return ErrEmptyDataset
	}
	if len(weights) != d.Len() {
		return fmt.Errorf("tree fit: %d weights vs %d samples: %w",
			len(weights), d.Len(), ErrBadShape)
	}
	if t.MaxDepth < 1 {
		t.MaxDepth = 1
	}
	if t.MinLeaf < 1 {
		t.MinLeaf = 1
	}
	if t.FeatureFrac <= 0 || t.FeatureFrac > 1 {
		t.FeatureFrac = 1
	}
	t.dim = d.Dim()
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	t.root = t.grow(d, weights, idx, 0)
	t.fitted = true
	return nil
}

func (t *Tree) grow(d *Dataset, w []float64, idx []int, depth int) *treeNode {
	mean := weightedMean(d, w, idx)
	if depth >= t.MaxDepth || len(idx) < 2*t.MinLeaf || pureTargets(d, idx) {
		return &treeNode{leaf: true, value: mean}
	}
	feat, thr, ok := t.bestSplit(d, w, idx)
	if !ok {
		return &treeNode{leaf: true, value: mean}
	}
	var left, right []int
	for _, i := range idx {
		if d.X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.MinLeaf || len(right) < t.MinLeaf {
		return &treeNode{leaf: true, value: mean}
	}
	return &treeNode{
		feature:   feat,
		threshold: thr,
		left:      t.grow(d, w, left, depth+1),
		right:     t.grow(d, w, right, depth+1),
	}
}

// bestSplit scans candidate features for the weighted-SSE-minimizing split.
func (t *Tree) bestSplit(d *Dataset, w []float64, idx []int) (feat int, thr float64, ok bool) {
	feats := t.candidateFeatures()
	bestGain := math.Inf(-1)
	baseSSE := weightedSSE(d, w, idx)
	order := make([]int, len(idx))
	for _, f := range feats {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return d.X[order[a]][f] < d.X[order[b]][f] })
		// Incremental left/right weighted sums for O(n) split evaluation.
		var wl, sl, ql float64 // weight, Σwy, Σwy² on the left
		wr, sr, qr := 0.0, 0.0, 0.0
		for _, i := range order {
			wr += w[i]
			sr += w[i] * d.Y[i]
			qr += w[i] * d.Y[i] * d.Y[i]
		}
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			wl += w[i]
			sl += w[i] * d.Y[i]
			ql += w[i] * d.Y[i] * d.Y[i]
			wr -= w[i]
			sr -= w[i] * d.Y[i]
			qr -= w[i] * d.Y[i] * d.Y[i]
			xv, xn := d.X[i][f], d.X[order[k+1]][f]
			if xv == xn {
				continue // cannot split between equal values
			}
			if wl <= 0 || wr <= 0 {
				continue
			}
			sse := (ql - sl*sl/wl) + (qr - sr*sr/wr)
			gain := baseSSE - sse
			if gain > bestGain {
				bestGain = gain
				feat = f
				thr = (xv + xn) / 2
				ok = true
			}
		}
	}
	if bestGain <= 1e-12 {
		return 0, 0, false
	}
	return feat, thr, ok
}

func (t *Tree) candidateFeatures() []int {
	all := make([]int, t.dim)
	for i := range all {
		all[i] = i
	}
	if t.FeatureFrac >= 1 || t.Rng == nil {
		return all
	}
	k := int(math.Ceil(t.FeatureFrac * float64(t.dim)))
	if k < 1 {
		k = 1
	}
	t.Rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:k]
}

func weightedMean(d *Dataset, w []float64, idx []int) float64 {
	var sw, sy float64
	for _, i := range idx {
		sw += w[i]
		sy += w[i] * d.Y[i]
	}
	if sw == 0 {
		return 0
	}
	return sy / sw
}

func weightedSSE(d *Dataset, w []float64, idx []int) float64 {
	var sw, sy, sq float64
	for _, i := range idx {
		sw += w[i]
		sy += w[i] * d.Y[i]
		sq += w[i] * d.Y[i] * d.Y[i]
	}
	if sw == 0 {
		return 0
	}
	return sq - sy*sy/sw
}

func pureTargets(d *Dataset, idx []int) bool {
	for k := 1; k < len(idx); k++ {
		if d.Y[idx[k]] != d.Y[idx[0]] {
			return false
		}
	}
	return true
}

// Predict returns the leaf value reached by x.
func (t *Tree) Predict(x []float64) (float64, error) {
	if !t.fitted {
		return 0, ErrNotFitted
	}
	if len(x) != t.dim {
		return 0, fmt.Errorf("tree predict: %d features, want %d: %w", len(x), t.dim, ErrBadShape)
	}
	n := t.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value, nil
}

// Score is the continuous leaf value (classifier-score interface).
func (t *Tree) Score(x []float64) (float64, error) { return t.Predict(x) }

// Classify thresholds the leaf value at 0 for −1/+1 labels.
func (t *Tree) Classify(x []float64) (float64, error) {
	v, err := t.Predict(x)
	if err != nil {
		return 0, err
	}
	if v >= 0 {
		return 1, nil
	}
	return -1, nil
}

var (
	_ Regressor  = (*Tree)(nil)
	_ Classifier = (*Tree)(nil)
)
