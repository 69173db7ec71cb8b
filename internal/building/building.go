// Package building is the green-building chiller-plant substrate that
// replaces the paper's proprietary 4-year operation dataset (§V, [22]).
//
// It provides a physics-flavored synthetic trace generator (weather model,
// occupancy-driven cooling load, part-load COP curves per chiller model,
// sensor noise), the query surface the MTL engine builds its 50 tasks on
// (records per chiller × load band), and the chiller-sequencing decision
// function whose performance H backs the task importance of Definition 1.
//
// Everything is deterministic per Config.Seed.
package building

import (
	"errors"
	"fmt"
	"time"
)

// Common errors.
var (
	// ErrNoRecords is returned when an operation needs a non-empty trace.
	ErrNoRecords = errors.New("building: trace has no records")
	// ErrUnknownChiller is returned for chiller IDs outside the plant.
	ErrUnknownChiller = errors.New("building: unknown chiller")
	// ErrBadContext is returned for invalid decision contexts.
	ErrBadContext = errors.New("building: invalid decision context")
)

// ModelType is a chiller technology. The plant mixes the three kinds the
// trace's task set is built on: electric centrifugal and screw compressors
// plus heat-driven absorption machines.
type ModelType int

// Supported chiller models.
const (
	// ModelCentrifugal is a large electric centrifugal chiller: high peak
	// COP near full load, steep part-load fall-off.
	ModelCentrifugal ModelType = iota
	// ModelScrew is a mid-size electric screw chiller: flatter part-load
	// curve peaking near 60% load.
	ModelScrew
	// ModelAbsorption is a heat-driven absorption chiller: low COP (thermal
	// input), nearly flat against load and weather.
	ModelAbsorption
)

// String names the model.
func (m ModelType) String() string {
	switch m {
	case ModelCentrifugal:
		return "centrifugal"
	case ModelScrew:
		return "screw"
	case ModelAbsorption:
		return "absorption"
	default:
		return fmt.Sprintf("ModelType(%d)", int(m))
	}
}

// modelSpec is the hidden true physics of one chiller model.
type modelSpec struct {
	capacityKW float64
	// baseCOP is the COP at the optimal part-load ratio and 24°C outdoor.
	baseCOP float64
	// optPLR is the part-load ratio of peak efficiency; curvature scales the
	// quadratic efficiency loss away from it.
	optPLR    float64
	curvature float64
	// tempSens is the relative COP loss per °C of outdoor temperature above
	// the 24°C rating point (condenser lift).
	tempSens float64
}

var modelSpecs = map[ModelType]modelSpec{
	ModelCentrifugal: {capacityKW: 1300, baseCOP: 5.9, optPLR: 0.82, curvature: 1.30, tempSens: 0.016},
	ModelScrew:       {capacityKW: 760, baseCOP: 5.1, optPLR: 0.62, curvature: 0.80, tempSens: 0.011},
	ModelAbsorption:  {capacityKW: 1050, baseCOP: 1.25, optPLR: 0.55, curvature: 0.30, tempSens: 0.003},
}

// CapacityKW is the model's nameplate cooling capacity.
func (m ModelType) CapacityKW() float64 { return modelSpecs[m].capacityKW }

// RatedCOP is the nameplate COP at the optimal part-load ratio and rating
// conditions — the crude prior a sequencer falls back to when no task model
// covers a (chiller, band) pair.
func (m ModelType) RatedCOP() float64 { return modelSpecs[m].baseCOP }

// LoadBand buckets a chiller's part-load ratio. One MTL task predicts one
// chiller's COP within one band ("COP prediction of a chiller for one
// particular load").
type LoadBand int

// The three operating bands.
const (
	// BandLow is PLR below 0.45.
	BandLow LoadBand = iota
	// BandMid is PLR in [0.45, 0.75).
	BandMid
	// BandHigh is PLR at or above 0.75.
	BandHigh
)

// Band boundaries between low/mid and mid/high part-load ratios.
const (
	bandLowMax = 0.45
	bandMidMax = 0.75
)

// BandOf buckets a part-load ratio.
func BandOf(plr float64) LoadBand {
	switch {
	case plr < bandLowMax:
		return BandLow
	case plr < bandMidMax:
		return BandMid
	default:
		return BandHigh
	}
}

// String names the band.
func (b LoadBand) String() string {
	switch b {
	case BandLow:
		return "low"
	case BandMid:
		return "mid"
	case BandHigh:
		return "high"
	default:
		return fmt.Sprintf("LoadBand(%d)", int(b))
	}
}

// WeatherCondition is the ordinal weather bucket of a record (a Table-I
// domain feature).
type WeatherCondition int

// Condition buckets by outdoor temperature.
const (
	// WeatherCool is below 18°C.
	WeatherCool WeatherCondition = iota
	// WeatherMild is [18, 24)°C.
	WeatherMild
	// WeatherWarm is [24, 29)°C.
	WeatherWarm
	// WeatherHotHumid is 29°C and above.
	WeatherHotHumid
)

// ConditionOf buckets an outdoor temperature.
func ConditionOf(outdoorC float64) WeatherCondition {
	switch {
	case outdoorC < 18:
		return WeatherCool
	case outdoorC < 24:
		return WeatherMild
	case outdoorC < 29:
		return WeatherWarm
	default:
		return WeatherHotHumid
	}
}

// String names the condition.
func (c WeatherCondition) String() string {
	switch c {
	case WeatherCool:
		return "cool"
	case WeatherMild:
		return "mild"
	case WeatherWarm:
		return "warm"
	case WeatherHotHumid:
		return "hot-humid"
	default:
		return fmt.Sprintf("WeatherCondition(%d)", int(c))
	}
}

// Building is one green building served by its own chiller plant.
type Building struct {
	// ID indexes Trace.Buildings.
	ID int
	// Name is a human-readable label.
	Name string
	// BaseLoadKW is the occupancy-driven cooling load at full occupancy and
	// mild weather; WeatherKWPerC adds load per °C above the balance point.
	BaseLoadKW    float64
	WeatherKWPerC float64
}

// Chiller is one machine of a building's plant.
type Chiller struct {
	// ID is the plant-wide chiller index.
	ID int
	// Building is the owning building's ID.
	Building int
	// Model determines capacity and the hidden COP physics.
	Model ModelType
	// Efficiency is the per-chiller multiplier on the model COP curve
	// (manufacturing spread and installation quality, ~±7%).
	Efficiency float64
	// DriftPhase shifts the seasonal maintenance-cycle efficiency drift —
	// the "internal factors" behind importance fluctuation.
	DriftPhase float64
}

// Record is one chiller's operating sample at one timestep. Only running
// chillers emit records.
type Record struct {
	Time      time.Time
	Building  int
	ChillerID int
	// Band buckets the part-load ratio the chiller ran at.
	Band LoadBand
	// Condition and OutdoorTempC describe the weather.
	Condition    WeatherCondition
	OutdoorTempC float64
	// CoolingLoadKW is the thermal load served; COP the measured (noisy)
	// coefficient of performance; OperatingPowerKW the drawn input power.
	CoolingLoadKW    float64
	COP              float64
	OperatingPowerKW float64
	// WaterFlowKgS and WaterDeltaTC are the chilled-water loop sensors.
	WaterFlowKgS float64
	WaterDeltaTC float64
}

// COPEstimator serves COP estimates to the sequencer: typically the MTL
// engine's task models. ok=false means no task covers the pair — the
// sequencer then falls back to the nameplate prior, which is exactly what
// "not conducting" a task costs (Definition 1).
type COPEstimator interface {
	Estimate(chillerID int, band LoadBand, outdoorC float64) (cop float64, ok bool)
}
