package alloc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/mathx"
	"repro/internal/mlearn"
)

// CRLAllocator wraps the core CRL model (Alg. 1) as a §V strategy: kNN
// environment definition followed by a greedy DQN rollout, guarded by the
// pack Decide makes of the defined importance (no local term, target 1.0) —
// the decision serve's crl arm answers with. Its priorities are the
// *clustered* importance estimates: when the defined environment mismatches
// reality, those priorities mis-rank tasks, which is the failure mode DCTA's
// local process corrects.
//
// Concurrency: NOT goroutine-safe. The greedy rollout
// (core.CRL.PredictWithEnvironment) forwards through the DQN's own
// activation scratch, so concurrent Allocate calls on one model race.
type CRLAllocator struct {
	model  *core.CRL
	policy core.CRLConfig
}

// NewCRLAllocator wraps a trained (or about-to-be-trained) CRL model. policy
// is the kNN definition (K, Blend) the guard defines with over the model's
// store; pass the configuration the model was built with.
func NewCRLAllocator(model *core.CRL, policy core.CRLConfig) (*CRLAllocator, error) {
	if model == nil {
		return nil, fmt.Errorf("alloc: nil CRL model")
	}
	return &CRLAllocator{model: model, policy: policy}, nil
}

// Name implements Allocator.
func (c *CRLAllocator) Name() string { return "CRL" }

// CoverageTarget bounds the greedy guard's packing (see Allocate).
const crlCoverageTarget = 1.0

// Allocate implements Allocator. The DQN rollout runs on the guard's defined
// environment, and whenever it captures less of that importance estimate
// than the guard's pack does, the guard's plan ships instead. A converged
// policy matches or beats the guard; an under-trained one degrades
// gracefully to it. Either way the decision is driven by the clustered
// environment — whose mismatch with reality is exactly the weakness DCTA's
// local process corrects.
func (c *CRLAllocator) Allocate(req Request) (*Result, error) {
	if err := validate(req); err != nil {
		return nil, err
	}
	if !c.model.Trained() {
		return nil, ErrNotReady
	}
	var guard Decision
	if err := Decide(req.Problem, c.model.Store(), c.policy, req.Signature,
		nil, nil, 0, 0, crlCoverageTarget, &guard); err != nil {
		return nil, fmt.Errorf("crl allocate: %w", err)
	}
	allocation, err := c.model.PredictWithEnvironment(&guard.Env)
	if err != nil {
		return nil, fmt.Errorf("crl allocate: %w", err)
	}
	predicted := importanceOf(allocation, guard.Env.Importance)
	if guard.Predicted > predicted {
		allocation, predicted = guard.Plan, guard.Predicted
	}
	n, m := len(req.Problem.Tasks), len(req.Problem.Processors)
	// kNN over the store, one DQN forward per episode step, plus the guard.
	ops := float64(len(req.Signature)) + float64(n+m)*dqnForwardOps(n, m) + guard.PackOps
	return &Result{
		Allocation:          allocation,
		DecisionOps:         ops,
		PredictedImportance: predicted,
		Priority:            guard.Env.Importance,
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

// Decision is Decide's workspace and its answer. The caller owns it: every
// buffer grows to the problem's size on first use and is reused by later
// calls, so a warm Decide allocates nothing. The answer's slices are
// overwritten by the next call.
type Decision struct {
	// Env is the defined environment: the kNN policy over the store.
	Env core.Environment
	// Scores are what the plan was packed by: Env.Importance itself, or
	// Eq. 6's w1·F₁ + w2·F₂ when a local model was passed.
	Scores []float64
	// Plan is the packed allocation.
	Plan core.Allocation
	// Predicted is the defined importance Plan captures.
	Predicted float64
	// PackOps is the pack's op-count estimate.
	PackOps float64

	knn     core.KNNScratch
	pack    PackScratch
	mixed   []float64 // Eq. 6 scores, when a local model is passed
	featBuf []float64 // the local model's per-task feature scratch
}

// Decide is the one allocation decision every DCTA and CRL caller makes —
// the simulated allocators and both arms of the allocation service: define
// the environment for the signature by policy's kNN (K, Blend) over store;
// when local is non-nil, mix its scores over feats into the defined
// importance by Eq. 6 (F = w1·F₁ + w2·F₂, F₁ max-normalized); pack the
// scores onto p's processors until target of their mass is captured. The
// answer lands in d. local must be fitted and feats must hold one row per
// task; a row not as wide as the rows local was fitted on fails with
// mlearn.ErrBadShape.
func Decide(p *core.Problem, store *core.EnvironmentStore, policy core.CRLConfig, sig []float64,
	local *LocalModel, feats [][]float64, w1, w2, target float64, d *Decision) error {
	if err := policy.DefineEnvironmentInto(store, sig, &d.Env, &d.knn); err != nil {
		return fmt.Errorf("alloc: define environment: %w", err)
	}
	d.Scores = d.Env.Importance
	if local != nil {
		var err error
		d.mixed, d.featBuf, err = CombineScoresInto(local, d.Env.Importance, feats, w1, w2, d.mixed, d.featBuf)
		if err != nil {
			return fmt.Errorf("alloc: local process: %w", err)
		}
		d.Scores = d.mixed
	}
	d.Plan, d.PackOps = PackByScoreInto(p, d.Scores, target, d.Plan, &d.pack)
	d.Predicted = importanceOf(d.Plan, d.Env.Importance)
	return nil
}

// importanceOf sums the importance an allocation captures.
func importanceOf(a core.Allocation, imp []float64) float64 {
	var v float64
	for j, proc := range a {
		if proc != core.Unassigned && j < len(imp) {
			v += imp[j]
		}
	}
	return v
}

// CombineScoresInto mixes a general-process importance estimate with the
// local process per Eq. (6), writing w1·F₁ + w2·F₂ into dst (grown as
// needed): F₁ is `general` max-normalized to [0, 1] (so it shares the local
// probabilities' scale) and F₂ is the SVM's selection score over each task's
// feature vector, with buf as the per-task feature workspace. A nil/unfitted
// local model or missing features leaves the normalized general scores
// alone. dst and the returned buffer may be reused across calls.
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

// DCTA is the cooperative allocator of Eq. (6):
// F(J, X) = w₁·F₁(J, C) + w₂·F₂(J, R), where F₁ is the general process — the
// importance the kNN policy defines over the historical store — and F₂ is
// the SVM local process (trained on scarce real-world data). Allocate is one
// Decide call: the combined per-task scores drive a constraint-respecting
// greedy packing that keeps only the most important work (§V: DCTA "merely
// performs the most important tasks"). It is the decision the allocation
// service's DCTA arm answers with, there over a cluster's sub-store.
//
// Concurrency: Allocate only reads the (goroutine-safe) store, scores
// through an immutable-after-Fit LocalModel, and decides into a workspace of
// its own, so any number of goroutines may call Allocate on one DCTA while
// the store grows.
type DCTA struct {
	// W1 and W2 weight the general and local processes.
	W1, W2 float64
	// CoverageTarget stops packing once this fraction of the combined score
	// mass is captured.
	CoverageTarget float64

	store  *core.EnvironmentStore
	policy core.CRLConfig
	local  *LocalModel
}

// NewDCTA combines the environment definition — policy's kNN (K, Blend)
// over store — with a trained local model, using the default weights (equal
// trust, 90% coverage). No CRL policy is involved: F₁ is the defined
// importance itself.
func NewDCTA(store *core.EnvironmentStore, policy core.CRLConfig, local *LocalModel) (*DCTA, error) {
	if store == nil || local == nil {
		return nil, fmt.Errorf("alloc: DCTA needs a store and a local model")
	}
	return &DCTA{W1: 0.5, W2: 0.5, CoverageTarget: 0.90, store: store, policy: policy, local: local}, nil
}

// Name implements Allocator.
func (d *DCTA) Name() string { return "DCTA" }

// Allocate implements Allocator. The request must carry per-task feature
// vectors for the local process.
func (d *DCTA) Allocate(req Request) (*Result, error) {
	if err := validate(req); err != nil {
		return nil, err
	}
	if !d.local.Fitted() {
		return nil, ErrNotReady
	}
	n := len(req.Problem.Tasks)
	if len(req.Features) != n {
		return nil, fmt.Errorf("alloc: %d feature vectors for %d tasks", len(req.Features), n)
	}
	var dec Decision
	if err := Decide(req.Problem, d.store, d.policy, req.Signature,
		d.local, req.Features, d.W1, d.W2, d.CoverageTarget, &dec); err != nil {
		return nil, fmt.Errorf("dcta: %w", err)
	}
	// kNN over the store (as CRLAllocator charges it), SVM margins and the
	// packing.
	ops := float64(len(req.Signature)) + float64(n*features.Dim) + dec.PackOps
	return &Result{
		Allocation:          dec.Plan,
		DecisionOps:         ops,
		PredictedImportance: dec.Predicted,
		Priority:            dec.Scores,
	}, nil
}

// Compile-time interface checks.
var (
	_ Allocator = (*CRLAllocator)(nil)
	_ Allocator = (*DCTA)(nil)
)
