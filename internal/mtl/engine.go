package mtl

import (
	"fmt"

	"repro/internal/building"
	"repro/internal/mlearn"
)

// Mode selects the multi-task learning regime (§V-B lists the supported
// kinds: "independent multi-task learning, self-adapted multi-task learning
// and clustered multi-task learning").
type Mode int

// Supported MTL modes.
const (
	// ModeSelfAdapted transfers donor samples only when a task's own data
	// is scarce (the default).
	ModeSelfAdapted Mode = iota + 1
	// ModeIndependent trains every task on its own data alone.
	ModeIndependent
	// ModeClustered pools the data of related tasks (same model type and
	// load band) and trains each task on its cluster's pool.
	ModeClustered
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeSelfAdapted:
		return "self-adapted"
	case ModeIndependent:
		return "independent"
	case ModeClustered:
		return "clustered"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Learner selects the per-task base model (§V-B trains tasks "based on SVM,
// AdaBoost and Random Forest"; COP prediction is a regression, so the
// regression-capable learners are offered here).
type Learner int

// Supported base learners.
const (
	// LearnerRidge is closed-form ridge regression (the default: cheapest
	// to retrain repeatedly, §II-A).
	LearnerRidge Learner = iota + 1
	// LearnerForest is a random-forest regressor.
	LearnerForest
	// LearnerKNN is k-nearest-neighbor regression.
	LearnerKNN
)

// String names the learner.
func (l Learner) String() string {
	switch l {
	case LearnerRidge:
		return "ridge"
	case LearnerForest:
		return "forest"
	case LearnerKNN:
		return "knn"
	default:
		return fmt.Sprintf("Learner(%d)", int(l))
	}
}

// EngineConfig tunes the MTL engine.
type EngineConfig struct {
	// MaxTasks trims the enumerated task set (paper: 50). 0 keeps all.
	MaxTasks int
	// MinSamples is the per-task sample count below which transfer kicks in.
	MinSamples int
	// DonorSamples caps how many donor records a starving task borrows.
	DonorSamples int
	// Transfer toggles transfer learning (ablation hook; ignored by
	// ModeIndependent, which never transfers, and ModeClustered, which
	// always pools).
	Transfer bool
	// Mode selects the MTL regime (default ModeSelfAdapted).
	Mode Mode
	// Learner selects the base model (default LearnerRidge).
	Learner Learner
	// Ridge is the ridge learner's L2 penalty.
	Ridge float64
	// TrainFraction limits how much of each task's data is used (simulates
	// edge-side data scarcity; 1 = all).
	TrainFraction float64
	// Seed drives the train subsampling.
	Seed int64
}

// DefaultEngineConfig mirrors the paper's setup: 50 tasks with transfer
// learning enabled.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		MaxTasks:      50,
		MinSamples:    60,
		DonorSamples:  240,
		Transfer:      true,
		Ridge:         1e-3,
		TrainFraction: 1,
		Seed:          1,
	}
}

// Engine owns the task set and per-task models, and serves COP estimates to
// the sequencer. It implements building.COPEstimator.
type Engine struct {
	cfg    EngineConfig
	trace  *building.Trace
	tasks  []Task
	models map[int]mlearn.Regressor // task ID → fitted model
	// byPair resolves (chiller, band) to a task ID.
	byPair map[pairKey]int
	// trainErr caches each task's training RMSE (feeds the Table-I
	// "Prediction Accuracy" feature).
	trainErr map[int]float64
}

type pairKey struct {
	chiller int
	band    building.LoadBand
}

// NewEngine enumerates tasks over tr; call Fit before estimating.
func NewEngine(tr *building.Trace, cfg EngineConfig) (*Engine, error) {
	if tr == nil || len(tr.Records) == 0 {
		return nil, building.ErrNoRecords
	}
	if cfg.MinSamples < 1 {
		cfg.MinSamples = 1
	}
	if cfg.TrainFraction <= 0 || cfg.TrainFraction > 1 {
		cfg.TrainFraction = 1
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeSelfAdapted
	}
	if cfg.Learner == 0 {
		cfg.Learner = LearnerRidge
	}
	e := &Engine{
		cfg:      cfg,
		trace:    tr,
		tasks:    EnumerateTasks(tr, cfg.MaxTasks),
		models:   make(map[int]mlearn.Regressor),
		byPair:   make(map[pairKey]int),
		trainErr: make(map[int]float64),
	}
	for _, t := range e.tasks {
		e.byPair[pairKey{t.ChillerID, t.Band}] = t.ID
	}
	return e, nil
}

// Tasks returns a copy of the enumerated task list.
func (e *Engine) Tasks() []Task {
	out := make([]Task, len(e.tasks))
	copy(out, e.tasks)
	return out
}

// Task returns the task with the given ID.
func (e *Engine) Task(id int) (Task, error) {
	if id < 0 || id >= len(e.tasks) {
		return Task{}, fmt.Errorf("%w: id %d", ErrUnknownTask, id)
	}
	return e.tasks[id], nil
}

// Fit trains every task model per the configured MTL mode: independent
// tasks train alone, self-adapted tasks borrow donor samples when scarce,
// clustered tasks train on their cluster's pooled data.
func (e *Engine) Fit() error {
	rng := newSubsampleRng(e.cfg.Seed)
	for _, t := range e.tasks {
		own, err := taskDataset(e.trace, t)
		if err != nil {
			return fmt.Errorf("task %d dataset: %w", t.ID, err)
		}
		own = subsample(rng, own, e.cfg.TrainFraction)
		train := own
		switch e.cfg.Mode {
		case ModeIndependent:
			// No transfer ever.
		case ModeClustered:
			train = e.clusterPool(t, own)
		default: // ModeSelfAdapted
			if e.cfg.Transfer && own.Len() < e.cfg.MinSamples {
				train = e.augmentWithDonors(t, own)
			}
		}
		if train.Len() < featureDim+1 {
			// Unfittable even with transfer; leave the model absent so the
			// sequencer falls back to the prior — exactly the missing-task
			// behaviour of Definition 1.
			continue
		}
		model := e.newLearner()
		if err := model.Fit(train); err != nil {
			return fmt.Errorf("task %d fit: %w", t.ID, err)
		}
		e.models[t.ID] = model
		e.trainErr[t.ID] = taskRMSE(model, own)
	}
	return nil
}

// newLearner instantiates the configured base model.
func (e *Engine) newLearner() mlearn.Regressor {
	switch e.cfg.Learner {
	case LearnerForest:
		f := mlearn.NewForest(20)
		f.MaxDepth = 5
		f.Seed = e.cfg.Seed
		return f
	case LearnerKNN:
		return mlearn.NewKNN(7)
	default:
		return mlearn.NewRidge(e.cfg.Ridge)
	}
}

// clusterPool concatenates the datasets of every task in t's cluster (same
// model type and load band across buildings) — clustered MTL.
func (e *Engine) clusterPool(t Task, own *mlearn.Dataset) *mlearn.Dataset {
	x := append([][]float64{}, own.X...)
	y := append([]float64{}, own.Y...)
	for _, o := range e.tasks {
		if o.ID == t.ID || o.Model != t.Model || o.Band != t.Band {
			continue
		}
		ds, err := taskDataset(e.trace, o)
		if err != nil {
			continue
		}
		x = append(x, ds.X...)
		y = append(y, ds.Y...)
	}
	pool, err := mlearn.NewDataset(x, y)
	if err != nil {
		return own
	}
	return pool
}

// augmentWithDonors concatenates donor samples (up to DonorSamples) onto a
// starving task's dataset — instance transfer in the sense of §II-A
// ("reuses parameters or training samples of source tasks").
func (e *Engine) augmentWithDonors(t Task, own *mlearn.Dataset) *mlearn.Dataset {
	need := e.cfg.DonorSamples
	x := append([][]float64{}, own.X...)
	y := append([]float64{}, own.Y...)
	for _, donor := range relatedDonors(e.tasks, t) {
		if need <= 0 {
			break
		}
		ds, err := taskDataset(e.trace, donor)
		if err != nil {
			continue
		}
		take := ds.Len()
		if take > need {
			take = need
		}
		x = append(x, ds.X[:take]...)
		y = append(y, ds.Y[:take]...)
		need -= take
	}
	aug, err := mlearn.NewDataset(x, y)
	if err != nil {
		return own
	}
	return aug
}

// Estimate implements building.COPEstimator over the fitted task models.
// Unfitted tasks abstain (ok=false), triggering the sequencer's prior
// fallback. Estimate is safe for concurrent use once Fit has returned.
func (e *Engine) Estimate(chillerID int, band building.LoadBand, outdoorC float64) (float64, bool) {
	id, ok := e.byPair[pairKey{chillerID, band}]
	if !ok {
		return 0, false
	}
	model, ok := e.models[id]
	if !ok {
		return 0, false
	}
	plr := bandMidpoint(band)
	v, err := model.Predict(copFeatures(plr, outdoorC))
	if err != nil {
		return 0, false
	}
	return clampCOP(v), true
}

// PredictionRMSE returns a task model's training RMSE (0 when unfitted).
func (e *Engine) PredictionRMSE(taskID int) float64 { return e.trainErr[taskID] }

// HasModel reports whether a task has a fitted model.
func (e *Engine) HasModel(taskID int) bool {
	_, ok := e.models[taskID]
	return ok
}

// leave-one-out estimators ---------------------------------------------------

// excludingEstimator is the engine with one task removed: the J∖{j} of
// Definition 1. It is a read-only view, so any number may be used
// concurrently.
type excludingEstimator struct {
	engine *Engine
	taskID int
}

// Estimate abstains for the excluded task and otherwise delegates.
func (x excludingEstimator) Estimate(chillerID int, band building.LoadBand, outdoorC float64) (float64, bool) {
	if id, ok := x.engine.byPair[pairKey{chillerID, band}]; ok && id == x.taskID {
		return 0, false
	}
	return x.engine.Estimate(chillerID, band, outdoorC)
}

// EstimatorExcluding returns the engine's estimator view without taskID.
func (e *Engine) EstimatorExcluding(taskID int) building.COPEstimator {
	return excludingEstimator{engine: e, taskID: taskID}
}

var _ building.COPEstimator = excludingEstimator{}

// estimateTable is the engine's estimates for one building under one outdoor
// temperature, asked once per (chiller, band): entry tableSlot(chiller, band)
// holds Estimate's COP, 0 where the engine abstains — which the sequencer
// treats exactly as ok=false (prior fallback). It ignores the outdoor
// temperature it is queried with, so it answers only for the decision it was
// filled for.
type estimateTable struct {
	cop []float64
}

// numBands is the number of load bands, building.BandLow…BandHigh.
const numBands = int(building.BandHigh) + 1

func tableSlot(chillerID int, band building.LoadBand) int {
	return chillerID*numBands + int(band)
}

// tabulate fills an estimateTable for chs at outdoorC.
func (e *Engine) tabulate(chs []building.Chiller, outdoorC float64) estimateTable {
	maxID := 0
	for _, ch := range chs {
		maxID = max(maxID, ch.ID)
	}
	t := estimateTable{cop: make([]float64, (maxID+1)*numBands)}
	for _, ch := range chs {
		for b := building.BandLow; b <= building.BandHigh; b++ {
			if cop, ok := e.Estimate(ch.ID, b, outdoorC); ok {
				t.cop[tableSlot(ch.ID, b)] = cop
			}
		}
	}
	return t
}

// Estimate implements building.COPEstimator from the table.
func (t *estimateTable) Estimate(chillerID int, band building.LoadBand, _ float64) (float64, bool) {
	cop := t.cop[tableSlot(chillerID, band)]
	return cop, cop != 0
}

func bandMidpoint(b building.LoadBand) float64 {
	switch b {
	case building.BandLow:
		return 0.30
	case building.BandMid:
		return 0.60
	default:
		return 0.85
	}
}

func taskRMSE(model mlearn.Regressor, d *mlearn.Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	var s float64
	for i, x := range d.X {
		p, err := model.Predict(x)
		if err != nil {
			return 0
		}
		diff := p - d.Y[i]
		s += diff * diff
	}
	return sqrt(s / float64(d.Len()))
}

var _ building.COPEstimator = (*Engine)(nil)
