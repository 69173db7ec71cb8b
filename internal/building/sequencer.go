package building

import (
	"fmt"
	"math"
	"time"
)

// DecisionContext is one sequencing decision for one building: meet the
// current cooling demand under the current weather.
type DecisionContext struct {
	// Building is the plant being sequenced.
	Building *Building
	// DemandKW is the total cooling demand to serve.
	DemandKW float64
	// OutdoorC is the current outdoor temperature.
	OutdoorC float64
	// Time stamps the decision (drives the hidden efficiency drift).
	Time time.Time
}

// Sequencer picks which chillers to run for a demand, minimizing estimated
// input power. It queries a COPEstimator per (chiller, band) — the MTL task
// models — and falls back to the nameplate prior for uncovered pairs, which
// is precisely how "not conducting" a task degrades the decision.
type Sequencer struct {
	// MinPLR is the lowest viable part-load ratio; stagings below it are
	// considered only when nothing else is feasible.
	MinPLR float64
	// PriorCOP estimates a chiller model's COP when no task model covers
	// the pair. The default nameplate prior ignores load, weather and the
	// machine's individual efficiency — crude on purpose.
	PriorCOP func(ModelType) float64
}

// NewSequencer returns a sequencer with the plant's default policy.
func NewSequencer() *Sequencer {
	return &Sequencer{
		MinPLR:   0.12,
		PriorCOP: func(m ModelType) float64 { return m.RatedCOP() },
	}
}

// Decision is one chosen staging.
type Decision struct {
	// ChillerIDs lists the running machines.
	ChillerIDs []int
	// PLR is the shared part-load ratio (load shared pro rata to capacity).
	PLR float64
	// EstimatedPowerKW is the input power the sequencer believed it chose.
	EstimatedPowerKW float64
}

// candidate is one feasible staging during search.
type candidate struct {
	mask   int
	capSum float64
	plr    float64
}

// candidates enumerates the feasible stagings for a demand: every chiller
// subset that can carry the load (PLR ≤ 1), preferring stagings at or above
// MinPLR. The same candidate set backs both the estimated choice and the
// true-physics optimum, so performance ratios stay in [0, 1].
func (s *Sequencer) candidates(chs []Chiller, demandKW float64) []candidate {
	var ok, low []candidate
	n := len(chs)
	for mask := 1; mask < 1<<n; mask++ {
		var capSum float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				capSum += chs[i].Model.CapacityKW()
			}
		}
		plr := demandKW / capSum
		if plr > 1 {
			continue
		}
		c := candidate{mask: mask, capSum: capSum, plr: plr}
		if plr >= s.MinPLR {
			ok = append(ok, c)
		} else {
			low = append(low, c)
		}
	}
	if len(ok) > 0 {
		return ok
	}
	return low
}

// Decide picks the staging with the lowest estimated input power.
func (s *Sequencer) Decide(tr *Trace, ctx DecisionContext, est COPEstimator) (*Decision, error) {
	chs, cands, err := s.stagings(tr, ctx)
	if err != nil {
		return nil, err
	}
	best, bestPower := s.choose(chs, cands, ctx, est)
	chosen := cands[best]
	d := &Decision{PLR: chosen.plr, EstimatedPowerKW: bestPower}
	for i := range chs {
		if chosen.mask&(1<<i) != 0 {
			d.ChillerIDs = append(d.ChillerIDs, chs[i].ID)
		}
	}
	return d, nil
}

// choose returns the staging with the lowest estimated input power (the
// first of equals) and that power. It asks est about every chiller of every
// staging; only the estimator decides what to cache.
func (s *Sequencer) choose(chs []Chiller, cands []candidate, ctx DecisionContext, est COPEstimator) (int, float64) {
	best := -1
	bestPower := math.Inf(1)
	for i, c := range cands {
		if power := s.estimatedPower(chs, c, ctx, est); power < bestPower {
			bestPower = power
			best = i
		}
	}
	return best, bestPower
}

// estimatedPower scores a staging with the estimator's band-granular COPs
// (prior fallback per uncovered pair).
func (s *Sequencer) estimatedPower(chs []Chiller, c candidate, ctx DecisionContext, est COPEstimator) float64 {
	band := BandOf(c.plr)
	var power float64
	for i := range chs {
		if c.mask&(1<<i) == 0 {
			continue
		}
		cop, ok := est.Estimate(chs[i].ID, band, ctx.OutdoorC)
		if !ok || cop <= 0 {
			cop = s.PriorCOP(chs[i].Model)
		}
		if cop < 0.3 {
			cop = 0.3
		}
		power += c.plr * chs[i].Model.CapacityKW() / cop
	}
	return power
}

// truePower scores a staging with the hidden physics at the exact PLR.
func truePower(tr *Trace, chs []Chiller, c candidate, ctx DecisionContext) float64 {
	var power float64
	for i := range chs {
		if c.mask&(1<<i) == 0 {
			continue
		}
		cop := tr.trueCOP(&chs[i], c.plr, ctx.OutdoorC, ctx.Time)
		power += c.plr * chs[i].Model.CapacityKW() / cop
	}
	return power
}

// stagings validates a context and lists its building's chillers and
// feasible stagings.
func (s *Sequencer) stagings(tr *Trace, ctx DecisionContext) ([]Chiller, []candidate, error) {
	if tr == nil || len(tr.Records) == 0 {
		return nil, nil, ErrNoRecords
	}
	if ctx.Building == nil {
		return nil, nil, fmt.Errorf("%w: nil building", ErrBadContext)
	}
	if ctx.DemandKW <= 0 {
		return nil, nil, fmt.Errorf("%w: demand %.2f kW", ErrBadContext, ctx.DemandKW)
	}
	chs := tr.ChillersOf(ctx.Building.ID)
	if len(chs) == 0 {
		return nil, nil, fmt.Errorf("%w: building %d has no chillers", ErrBadContext, ctx.Building.ID)
	}
	cands := s.candidates(chs, ctx.DemandKW)
	if len(cands) == 0 {
		return nil, nil, fmt.Errorf("%w: demand %.0f kW exceeds plant capacity", ErrBadContext, ctx.DemandKW)
	}
	return chs, cands, nil
}

// PreparedDecision is one decision context with everything no estimator
// changes worked out once: the building's chillers, its feasible stagings,
// each staging's true input power, the physics optimum and the
// all-chillers-on baseline. Scoring it under an estimator then costs only
// the sequencer's argmin over estimated power, so one context can be scored
// under many estimators — Definition 1's leave-one-out views — without
// re-running the physics. It is read-only once prepared.
type PreparedDecision struct {
	seq   *Sequencer
	ctx   DecisionContext
	chs   []Chiller
	cands []candidate
	// truePower[i] is cands[i]'s input power under the hidden physics.
	truePower []float64
	optKW     float64
	allOnKW   float64
}

// Prepare validates a decision context and prepares it for scoring.
func (s *Sequencer) Prepare(tr *Trace, ctx DecisionContext) (*PreparedDecision, error) {
	chs, cands, err := s.stagings(tr, ctx)
	if err != nil {
		return nil, err
	}
	p := &PreparedDecision{
		seq: s, ctx: ctx, chs: chs, cands: cands,
		truePower: make([]float64, len(cands)),
		optKW:     math.Inf(1),
	}
	for i, c := range cands {
		p.truePower[i] = truePower(tr, chs, c, ctx)
		if p.truePower[i] < p.optKW {
			p.optKW = p.truePower[i]
		}
	}
	var capSum float64
	for i := range chs {
		capSum += chs[i].Model.CapacityKW()
	}
	p.allOnKW = truePower(tr, chs, candidate{mask: 1<<len(chs) - 1, capSum: capSum, plr: ctx.DemandKW / capSum}, ctx)
	return p, nil
}

// Chillers lists the decision's machines in plant order. The slice is the
// decision's own; callers must not modify it.
func (p *PreparedDecision) Chillers() []Chiller { return p.chs }

// Performance is the decision's H under est (see DecisionPerformance).
func (p *PreparedDecision) Performance(est COPEstimator) float64 {
	chosen, opt, _ := p.evaluate(est)
	return opt / chosen
}

// evaluate runs the decision under est and returns the true powers of the
// chosen staging, the physics-optimal staging, and the all-chillers-on
// baseline.
func (p *PreparedDecision) evaluate(est COPEstimator) (chosenKW, optKW, allOnKW float64) {
	best, _ := p.seq.choose(p.chs, p.cands, p.ctx, est)
	return p.truePower[best], p.optKW, p.allOnKW
}

// DecisionPerformance is the decision function's H for one context: the
// true input power of the physics-optimal staging divided by the true input
// power of the staging the sequencer chose from the estimates. H ∈ (0, 1];
// H = 1 means the estimates led to the genuinely best decision.
func DecisionPerformance(tr *Trace, seq *Sequencer, ctx DecisionContext, est COPEstimator) (float64, error) {
	p, err := seq.Prepare(tr, ctx)
	if err != nil {
		return 0, err
	}
	return p.Performance(est), nil
}

// SavingPerformance scores a decision on the Fig. 3 energy-saving scale:
// the share of the achievable saving (running all chillers vs the optimal
// staging) that the chosen staging realizes, clamped to [0, 1].
func SavingPerformance(tr *Trace, seq *Sequencer, ctx DecisionContext, est COPEstimator) (float64, error) {
	p, err := seq.Prepare(tr, ctx)
	if err != nil {
		return 0, err
	}
	chosen, opt, all := p.evaluate(est)
	achievable := all - opt
	if achievable < 1e-9 {
		return 1, nil
	}
	sv := (all - chosen) / achievable
	if sv < 0 {
		sv = 0
	} else if sv > 1 {
		sv = 1
	}
	return sv, nil
}
