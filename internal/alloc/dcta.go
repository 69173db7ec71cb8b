package alloc

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/mathx"
	"repro/internal/mlearn"
)

// CRLAllocator wraps the core CRL model (Alg. 1) as a §V strategy: kNN
// environment definition followed by a greedy DQN rollout. Its priorities
// are the *clustered* importance estimates — when the defined environment
// mismatches reality, those priorities mis-rank tasks, which is the failure
// mode DCTA's local process corrects.
//
// Concurrency: NOT goroutine-safe. The greedy rollout (core.CRL.Predict)
// forwards through the DQN's own activation scratch, so concurrent Allocate
// calls on one model race.
type CRLAllocator struct {
	model *core.CRL
}

// NewCRLAllocator wraps a trained (or about-to-be-trained) CRL model.
func NewCRLAllocator(model *core.CRL) (*CRLAllocator, error) {
	if model == nil {
		return nil, fmt.Errorf("alloc: nil CRL model")
	}
	return &CRLAllocator{model: model}, nil
}

// Name implements Allocator.
func (c *CRLAllocator) Name() string { return "CRL" }

// CoverageTarget bounds the greedy guard's packing (see Allocate).
const crlCoverageTarget = 1.0

// Allocate implements Allocator. The DQN rollout is guarded by a greedy
// pack on the *defined* importance: whenever the rollout captures less of
// the policy's own importance estimate than the greedy pack would, the
// guard's plan ships instead. A converged policy matches or beats the
// guard; an under-trained one degrades gracefully to it. Either way the
// decision is driven by the clustered environment — whose mismatch with
// reality is exactly the weakness DCTA's local process corrects.
func (c *CRLAllocator) Allocate(req Request) (*Result, error) {
	if err := validate(req); err != nil {
		return nil, err
	}
	if !c.model.Trained() {
		return nil, ErrNotReady
	}
	allocation, env, err := c.model.Predict(req.Signature)
	if err != nil {
		if errors.Is(err, core.ErrNotTrained) {
			return nil, ErrNotReady
		}
		return nil, fmt.Errorf("crl allocate: %w", err)
	}
	predictedOf := func(a core.Allocation) float64 {
		var v float64
		for j, proc := range a {
			if proc != core.Unassigned && j < len(env.Importance) {
				v += env.Importance[j]
			}
		}
		return v
	}
	guard, guardOps := packByScore(req.Problem, env.Importance, crlCoverageTarget)
	predicted := predictedOf(allocation)
	if g := predictedOf(guard); g > predicted {
		allocation, predicted = guard, g
	}
	n, m := len(req.Problem.Tasks), len(req.Problem.Processors)
	// kNN over the store, one DQN forward per episode step, plus the guard.
	ops := float64(len(req.Signature)) + float64(n+m)*dqnForwardOps(n, m) + guardOps
	return &Result{
		Allocation:          allocation,
		DecisionOps:         ops,
		PredictedImportance: predicted,
		Priority:            mathx.Clone(env.Importance),
	}, nil
}

// dqnForwardOps estimates multiply-adds of one Q-network forward pass for
// the allocation MDP's state/action sizes (two hidden layers of 64).
func dqnForwardOps(n, m int) float64 {
	in := float64(2 * n * m)
	return in*64 + 64*64 + 64*float64(n+1)
}

// LocalModel is the DCTA local process F₂ (§IV-B): a squared-hinge SVM over
// the Table-I features predicting whether a task belongs in the optimal
// decision, with feature standardization.
type LocalModel struct {
	svm    *mlearn.SVM
	scaler *mlearn.StandardScaler
	fitted bool
}

// NewLocalModel returns an untrained local model. The SVM hyperparameters
// (C, epochs, step size) are the ones selected by the §IV-B comparison.
func NewLocalModel(seed int64) *LocalModel {
	svm := mlearn.NewSVM()
	svm.Seed = seed
	svm.C = 50
	svm.Epochs = 200
	svm.LearningRate = 0.02
	return &LocalModel{svm: svm, scaler: &mlearn.StandardScaler{}}
}

// LocalSample is one training example for the local process.
type LocalSample struct {
	// Features is the Table-I vector for (task, context).
	Features []float64
	// Selected is +1 when the task was part of the optimal decision, −1
	// otherwise.
	Selected float64
}

// Fit trains the SVM on local real-world samples.
func (l *LocalModel) Fit(samples []LocalSample) error {
	if len(samples) == 0 {
		return mlearn.ErrEmptyDataset
	}
	x := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		v := mathx.Clone(s.Features)
		features.Sanitize(v)
		x[i] = v
		y[i] = s.Selected
	}
	if err := l.scaler.Fit(x); err != nil {
		return fmt.Errorf("local scaler: %w", err)
	}
	scaled, err := l.scaler.TransformAll(x)
	if err != nil {
		return fmt.Errorf("local scaler: %w", err)
	}
	d, err := mlearn.NewDataset(scaled, y)
	if err != nil {
		return fmt.Errorf("local dataset: %w", err)
	}
	if err := l.svm.Fit(d); err != nil {
		return fmt.Errorf("local svm: %w", err)
	}
	l.fitted = true
	return nil
}

// Score returns the probability-like selection score in [0, 1] for one
// feature vector.
func (l *LocalModel) Score(featureVec []float64) (float64, error) {
	if !l.fitted {
		return 0, ErrNotReady
	}
	v := mathx.Clone(featureVec)
	features.Sanitize(v)
	scaled, err := l.scaler.Transform(v)
	if err != nil {
		return 0, fmt.Errorf("local transform: %w", err)
	}
	return l.svm.Probability(scaled)
}

// ScoreInto is Score using buf as the feature workspace instead of cloning —
// the allocation-free variant for serving hot paths. Returns the score and
// the (possibly grown) buffer for reuse. The arithmetic (sanitize →
// standardize → logistic margin) is identical to Score.
func (l *LocalModel) ScoreInto(featureVec []float64, buf []float64) (float64, []float64, error) {
	if !l.fitted {
		return 0, buf, ErrNotReady
	}
	buf = append(buf[:0], featureVec...)
	features.Sanitize(buf)
	if err := l.scaler.TransformInPlace(buf); err != nil {
		return 0, buf, fmt.Errorf("local transform: %w", err)
	}
	p, err := l.svm.Probability(buf)
	return p, buf, err
}

// Fitted reports training state.
func (l *LocalModel) Fitted() bool { return l.fitted }

// SamplesFromDecision converts one historical optimal decision into local
// training samples: every task selected by the (importance-aware) decision
// is a positive example, every dropped task a negative one.
func SamplesFromDecision(featureVecs [][]float64, allocation core.Allocation) []LocalSample {
	n := len(allocation)
	if len(featureVecs) < n {
		n = len(featureVecs)
	}
	out := make([]LocalSample, 0, n)
	for j := 0; j < n; j++ {
		label := -1.0
		if allocation[j] != core.Unassigned {
			label = 1
		}
		out = append(out, LocalSample{Features: featureVecs[j], Selected: label})
	}
	return out
}

// DCTA is the cooperative allocator of Eq. (6):
// F(J, X) = w₁·F₁(J, C) + w₂·F₂(J, R), where F₁ is the CRL general process
// (trained on abundant environment-definition data) and F₂ is the SVM local
// process (trained on scarce real-world data). The combined per-task scores
// drive a constraint-respecting greedy packing that keeps only the most
// important work (§V: DCTA "merely performs the most important tasks").
//
// Concurrency: Allocate only reads the CRL's environment store
// (goroutine-safe), scores through an immutable-after-Fit LocalModel, and
// packs with pure local state, so any number of goroutines may call Allocate
// on one DCTA. Online feedback must not Fit the live local model — Fit
// mutates the SVM and scaler under in-flight Score calls — instead fit a
// fresh LocalModel and SetLocal it; in-flight requests finish on the model
// they started with.
type DCTA struct {
	// W1 and W2 weight the general and local processes.
	W1, W2 float64
	// CoverageTarget stops packing once this fraction of the combined score
	// mass is captured.
	CoverageTarget float64

	crl *core.CRL

	// localMu guards the local-model pointer only: Allocate snapshots it
	// once per request, so SetLocal swaps never race in-progress scoring.
	localMu sync.RWMutex
	local   *LocalModel
}

// NewDCTA combines a CRL model with a trained local model using the default
// weights (equal trust, 90% coverage). Allocate reads the CRL's environment
// store alone, never its policy, so the CRL need not be trained.
func NewDCTA(crl *core.CRL, local *LocalModel) (*DCTA, error) {
	if crl == nil || local == nil {
		return nil, fmt.Errorf("alloc: DCTA needs both processes")
	}
	return &DCTA{W1: 0.5, W2: 0.5, CoverageTarget: 0.90, crl: crl, local: local}, nil
}

// Name implements Allocator.
func (d *DCTA) Name() string { return "DCTA" }

// LocalModel returns the local process currently answering requests.
func (d *DCTA) LocalModel() *LocalModel {
	d.localMu.RLock()
	defer d.localMu.RUnlock()
	return d.local
}

// SetLocal swaps in a replacement local process — the online-feedback path:
// fit a fresh model on the grown sample window, then publish it here.
func (d *DCTA) SetLocal(local *LocalModel) error {
	if local == nil {
		return fmt.Errorf("alloc: nil local model")
	}
	d.localMu.Lock()
	d.local = local
	d.localMu.Unlock()
	return nil
}

// CombineScores mixes a general-process importance estimate with the local
// process per Eq. (6): w1·F₁ + w2·F₂, where F₁ is `general` max-normalized
// to [0, 1] (so it shares the local probabilities' scale) and F₂ is the
// SVM's selection score over each task's feature vector. A nil/unfitted
// local model or missing features returns the normalized general scores
// alone — the caller's graceful degradation to the F₁-only decision. Used
// by DCTA.Allocate and by internal/serve's degraded fallback allocator.
func CombineScores(local *LocalModel, general []float64, feats [][]float64, w1, w2 float64) ([]float64, error) {
	combined := mathx.Clone(general)
	if hi := mathx.MaxOf(combined); hi > 0 {
		mathx.Scale(1/hi, combined)
	}
	if local == nil || !local.Fitted() || len(feats) != len(general) {
		return combined, nil
	}
	for j := range combined {
		localScore, err := local.Score(feats[j])
		if err != nil {
			return nil, fmt.Errorf("task %d: %w", j, err)
		}
		combined[j] = w1*combined[j] + w2*localScore
	}
	return combined, nil
}

// CombineScoresInto is CombineScores writing into dst (grown as needed) with
// buf as the per-task feature workspace. Arithmetic matches CombineScores
// exactly; dst and the returned buffer may be reused across calls.
func CombineScoresInto(local *LocalModel, general []float64, feats [][]float64, w1, w2 float64, dst, buf []float64) ([]float64, []float64, error) {
	dst = append(dst[:0], general...)
	if hi := mathx.MaxOf(dst); hi > 0 {
		mathx.Scale(1/hi, dst)
	}
	if local == nil || !local.Fitted() || len(feats) != len(general) {
		return dst, buf, nil
	}
	for j := range dst {
		localScore, grown, err := local.ScoreInto(feats[j], buf)
		buf = grown
		if err != nil {
			return dst, buf, fmt.Errorf("task %d: %w", j, err)
		}
		dst[j] = w1*dst[j] + w2*localScore
	}
	return dst, buf, nil
}

// Allocate implements Allocator. The request must carry per-task feature
// vectors for the local process.
func (d *DCTA) Allocate(req Request) (*Result, error) {
	if err := validate(req); err != nil {
		return nil, err
	}
	local := d.LocalModel()
	if !local.Fitted() {
		return nil, ErrNotReady
	}
	n := len(req.Problem.Tasks)
	if len(req.Features) != n {
		return nil, fmt.Errorf("alloc: %d feature vectors for %d tasks", len(req.Features), n)
	}
	// General process F₁: the clustered environment's importance estimate,
	// max-normalized to [0,1] (by CombineScores) so it mixes with the local
	// probabilities on a common scale.
	env, err := d.crl.DefineEnvironment(req.Signature)
	if err != nil {
		return nil, fmt.Errorf("dcta general process: %w", err)
	}
	combined, err := CombineScores(local, env.Importance, req.Features, d.W1, d.W2)
	if err != nil {
		return nil, fmt.Errorf("dcta local process: %w", err)
	}
	allocation, packOps := packByScore(req.Problem, combined, d.CoverageTarget)
	// kNN over the store (as CRLAllocator charges it), SVM margins and the
	// packing.
	ops := float64(len(req.Signature)) + float64(n*features.Dim) + packOps
	var predicted float64
	for j, proc := range allocation {
		if proc != core.Unassigned && j < len(env.Importance) {
			predicted += env.Importance[j]
		}
	}
	return &Result{
		Allocation:          allocation,
		DecisionOps:         ops,
		PredictedImportance: predicted,
		Priority:            combined,
	}, nil
}

// Compile-time interface checks.
var (
	_ Allocator = (*CRLAllocator)(nil)
	_ Allocator = (*DCTA)(nil)
)
