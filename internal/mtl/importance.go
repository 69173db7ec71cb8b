package mtl

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/building"
	"repro/internal/mathx"
	"repro/internal/mlearn"
)

// PlantContext is one decision epoch: every building must be sequenced for
// its current demand under shared weather. The paper's overall decision
// performance for a context is the mean per-building H.
type PlantContext struct {
	Time     time.Time
	Contexts []building.DecisionContext
}

// SampleContexts draws plant contexts from the trace at a regular cadence
// (one per `every`; e.g. 24h ≈ one decision epoch per day at noon). Each
// context reconstructs the buildings' demands from the trace's own records.
func SampleContexts(tr *building.Trace, every time.Duration, limit int) []PlantContext {
	if every <= 0 {
		every = 24 * time.Hour
	}
	byTime := make(map[time.Time]map[int]*building.DecisionContext)
	for _, r := range tr.Records {
		m, ok := byTime[r.Time]
		if !ok {
			m = make(map[int]*building.DecisionContext)
			byTime[r.Time] = m
		}
		ctx, ok := m[r.Building]
		if !ok {
			ctx = &building.DecisionContext{
				Building: tr.BuildingByID(r.Building),
				OutdoorC: r.OutdoorTempC,
				Time:     r.Time,
			}
			m[r.Building] = ctx
		}
		ctx.DemandKW += r.CoolingLoadKW
	}
	start := tr.Records[0].Time
	// Prefer mid-day epochs where plants are under real load.
	cursor := time.Date(start.Year(), start.Month(), start.Day(), 12, 0, 0, 0, start.Location())
	var out []PlantContext
	last := tr.Records[len(tr.Records)-1].Time
	for t := cursor; !t.After(last); t = t.Add(every) {
		m, ok := byTime[t]
		if !ok {
			continue
		}
		pc := PlantContext{Time: t}
		for _, b := range tr.Buildings {
			if ctx, ok := m[b.ID]; ok && ctx.DemandKW > 0 {
				pc.Contexts = append(pc.Contexts, *ctx)
			}
		}
		if len(pc.Contexts) > 0 {
			out = append(out, pc)
		}
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// OverallPerformance evaluates H(J;θ) for a plant context: the mean
// decision performance across buildings using the engine's task models.
func (e *Engine) OverallPerformance(seq *building.Sequencer, pc PlantContext) (float64, error) {
	return e.overallWith(e, seq, pc)
}

// overallWith evaluates the mean per-building H under an arbitrary
// estimator view (the full engine, or a leave-one-out view).
func (e *Engine) overallWith(est building.COPEstimator, seq *building.Sequencer, pc PlantContext) (float64, error) {
	if len(e.models) == 0 {
		return 0, ErrNotTrained
	}
	if len(pc.Contexts) == 0 {
		return 0, fmt.Errorf("mtl: empty plant context")
	}
	var sum float64
	for _, ctx := range pc.Contexts {
		h, err := building.DecisionPerformance(e.trace, seq, ctx, est)
		if err != nil {
			return 0, fmt.Errorf("building %d: %w", ctx.Building.ID, err)
		}
		sum += h
	}
	return sum / float64(len(pc.Contexts)), nil
}

// Importance computes Definition 1 for one task:
// I_j = H(J;θ) − H(J∖{j}; θ∖{θ_j}), clamped below at 0 (a task whose removal
// *helps* is noise; the paper treats importance as a non-negative profit).
func (e *Engine) Importance(seq *building.Sequencer, pc PlantContext, taskID int) (float64, error) {
	if _, err := e.Task(taskID); err != nil {
		return 0, err
	}
	full, err := e.OverallPerformance(seq, pc)
	if err != nil {
		return 0, err
	}
	without, err := e.overallWith(e.EstimatorExcluding(taskID), seq, pc)
	if err != nil {
		return 0, err
	}
	imp := full - without
	if imp < 0 {
		imp = 0
	}
	return imp, nil
}

// ImportanceVector computes Definition 1 for every task under one context,
// bitwise what Importance computes task by task. Three things make that
// cheap without changing a bit:
//
//   - each building's decision is prepared once (building.Sequencer.Prepare):
//     its stagings' true power and the physics optimum do not depend on the
//     estimator;
//   - the engine is asked once per (chiller, band) of each building: a
//     building has one outdoor temperature per context, so Estimate answers
//     a pair the same way for every staging and every leave-one-out view;
//   - leaving task j out changes only the decision of the building that owns
//     j's chiller, so only that building is re-scored, with j's pair
//     abstaining, and every other building reuses its full-engine H.
//
// H(J;θ) and every H(J∖{j}) are summed over the buildings in overallWith's
// order and tie-breaking stays the sequencer's, so the entries equal the
// full-pass-per-task reference exactly.
func (e *Engine) ImportanceVector(seq *building.Sequencer, pc PlantContext) ([]float64, error) {
	if len(e.models) == 0 {
		return nil, ErrNotTrained
	}
	if len(pc.Contexts) == 0 {
		return nil, fmt.Errorf("mtl: empty plant context")
	}
	n := len(pc.Contexts)
	preps := make([]*building.PreparedDecision, n)
	tables := make([]estimateTable, n)
	hs := make([]float64, n)
	var sum float64
	for k, ctx := range pc.Contexts {
		p, err := seq.Prepare(e.trace, ctx)
		if err != nil {
			return nil, fmt.Errorf("building %d: %w", ctx.Building.ID, err)
		}
		preps[k] = p
		tables[k] = e.tabulate(p.Chillers(), ctx.OutdoorC)
		hs[k] = p.Performance(&tables[k])
		sum += hs[k]
	}
	full := sum / float64(n)
	out := make([]float64, len(e.tasks))
	for _, t := range e.tasks {
		owner := e.trace.ChillerByID(t.ChillerID).Building
		var without float64
		for k, ctx := range pc.Contexts {
			h := hs[k]
			if ctx.Building.ID == owner {
				pair := &tables[k].cop[tableSlot(t.ChillerID, t.Band)]
				kept := *pair
				*pair = 0 // task j abstains
				h = preps[k].Performance(&tables[k])
				*pair = kept
			}
			without += h
		}
		imp := full - without/float64(n)
		if imp < 0 {
			imp = 0
		}
		out[t.ID] = imp
	}
	return out, nil
}

// LongTailStats summarizes an importance distribution (Fig. 2 / Obs. 1).
type LongTailStats struct {
	// Gini is the inequality coefficient of the importance mass.
	Gini float64
	// TopFractionFor80 is the smallest fraction of tasks carrying ≥80% of
	// total importance (the paper reports ≈12.72%).
	TopFractionFor80 float64
	// NonZeroFraction is the share of tasks with any importance at all.
	NonZeroFraction float64
	// Mean and Max describe the raw scale.
	Mean, Max float64
}

// AnalyzeLongTail computes the distributional statistics of an aggregated
// importance vector.
func AnalyzeLongTail(importance []float64) LongTailStats {
	nz := 0
	for _, v := range importance {
		if v > 0 {
			nz++
		}
	}
	stats := LongTailStats{
		Gini:             mathx.GiniCoefficient(importance),
		TopFractionFor80: mathx.MinTopFractionForShare(importance, 0.8),
		Mean:             mathx.Mean(importance),
		Max:              mathx.MaxOf(importance),
	}
	if len(importance) > 0 {
		stats.NonZeroFraction = float64(nz) / float64(len(importance))
	}
	return stats
}

// helpers --------------------------------------------------------------

func sqrt(v float64) float64 { return math.Sqrt(v) }

func newSubsampleRng(seed int64) *rand.Rand { return mathx.NewRand(seed) }

// subsample keeps a fraction of a dataset (data scarcity knob).
func subsample(rng *rand.Rand, d *mlearn.Dataset, frac float64) *mlearn.Dataset {
	if frac >= 1 || d.Len() == 0 {
		return d
	}
	keep := int(frac * float64(d.Len()))
	if keep < 1 {
		keep = 1
	}
	idx := rng.Perm(d.Len())[:keep]
	return d.Subset(idx)
}
