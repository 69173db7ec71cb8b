// Package features implements the domain-assisted feature engineering of
// §IV-D (Table I) for the DCTA local process. Each task in a decision
// context is described by two general features (Past Success, Prediction
// Accuracy) and the domain features of a chiller-sequencing plant (building,
// model type, operating power, weather condition, outdoor temperature,
// latest cooling load, water mass-flow rate, water ΔT).
package features

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/building"
	"repro/internal/mtl"
)

// ErrUnknownTask is returned for task IDs outside the extractor's task set.
var ErrUnknownTask = errors.New("features: unknown task")

// Dim is the feature vector length:
// 2 general + building-id + 3 model one-hot + power + condition + outdoor
// temp + latest load + flow + ΔT. There is no separate band column: the
// task's load band is encoded as a bias added onto the latest-cooling-load
// feature (see bandBias), so the vector stays at 12 columns.
const Dim = 12

// Names lists the feature vector's columns in order (for documentation and
// table output).
func Names() []string {
	return []string{
		"past_success",        // general: selections in past optimal decisions
		"prediction_accuracy", // general: 1/(1+RMSE) of the task model
		"building",            // domain: building ID
		"model_centrifugal",   // domain: model type one-hot
		"model_screw",
		"model_absorption",
		"operating_power_kw",  // domain: latest operating power
		"weather_condition",   // domain: ordinal condition
		"outdoor_temp_c",      // domain: current outdoor temperature
		"latest_cooling_load", // domain: last recorded cooling load
		"water_flow_kgs",      // domain: latest water mass flow
		"water_delta_t",       // domain: latest water ΔT
	}
}

// Context is the sensing snapshot a feature vector is computed against.
type Context struct {
	// Time bounds the "latest record" lookups (records after Time are
	// invisible — no peeking into the future).
	Time time.Time
	// OutdoorTempC and Condition describe current weather.
	OutdoorTempC float64
	Condition    building.WeatherCondition
}

// Extractor computes Table-I feature vectors for the tasks of an MTL engine.
type Extractor struct {
	trace *building.Trace
	tasks []mtl.Task
	// rmse answers the Prediction Accuracy general feature.
	rmse func(taskID int) float64
	// success counts how often each task appeared in past optimal
	// decisions; updated by RecordSuccess as decisions are made.
	success []float64
}

// NewExtractor builds an extractor over the engine's task set.
func NewExtractor(tr *building.Trace, engine *mtl.Engine) (*Extractor, error) {
	if tr == nil || len(tr.Records) == 0 {
		return nil, building.ErrNoRecords
	}
	tasks := engine.Tasks()
	return &Extractor{
		trace:   tr,
		tasks:   tasks,
		rmse:    engine.PredictionRMSE,
		success: make([]float64, len(tasks)),
	}, nil
}

// RecordSuccess increments a task's Past Success counter ("the number of
// cases that a task is selected in the optimal decision in the past").
func (e *Extractor) RecordSuccess(taskID int) error {
	if taskID < 0 || taskID >= len(e.tasks) {
		return fmt.Errorf("%w: id %d", ErrUnknownTask, taskID)
	}
	e.success[taskID]++
	return nil
}

// Vector computes the Table-I feature vector for one task under ctx.
func (e *Extractor) Vector(taskID int, ctx Context) ([]float64, error) {
	if taskID < 0 || taskID >= len(e.tasks) {
		return nil, fmt.Errorf("%w: id %d", ErrUnknownTask, taskID)
	}
	t := e.tasks[taskID]
	out := make([]float64, Dim)
	// General features.
	out[0] = e.success[taskID]
	out[1] = 1 / (1 + e.rmse(taskID))
	// Domain features.
	out[2] = float64(t.Building)
	switch t.Model {
	case building.ModelCentrifugal:
		out[3] = 1
	case building.ModelScrew:
		out[4] = 1
	case building.ModelAbsorption:
		out[5] = 1
	}
	if r := e.trace.LatestBefore(t.ChillerID, ctx.Time); r != nil {
		out[6] = r.OperatingPowerKW
		out[9] = r.CoolingLoadKW
		out[10] = r.WaterFlowKgS
		out[11] = r.WaterDeltaTC
	}
	out[7] = float64(ctx.Condition)
	out[8] = ctx.OutdoorTempC
	// Encode the task's operating band via its midpoint PLR so the local
	// model can separate bands of the same chiller.
	out[9] += bandBias(t.Band)
	return out, nil
}

// Vectors computes feature vectors for all tasks under ctx.
func (e *Extractor) Vectors(ctx Context) ([][]float64, error) {
	out := make([][]float64, len(e.tasks))
	for i := range e.tasks {
		v, err := e.Vector(i, ctx)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// bandBias separates load bands within the latest-cooling-load feature so
// tasks of one chiller do not collapse to identical vectors.
func bandBias(b building.LoadBand) float64 {
	switch b {
	case building.BandLow:
		return 0
	case building.BandMid:
		return 1
	default:
		return 2
	}
}

// Sanitize clips non-finite values (defensive: upstream physics should never
// produce them, but the SVM must never see NaN).
func Sanitize(v []float64) {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			v[i] = 0
		}
	}
}
