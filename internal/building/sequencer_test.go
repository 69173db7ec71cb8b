package building

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

// truthEstimator answers with the hidden physics at the band midpoint — the
// best any band-granular task model could do.
type truthEstimator struct {
	tr *Trace
	t  time.Time
}

func (e truthEstimator) Estimate(chillerID int, band LoadBand, outdoorC float64) (float64, bool) {
	cop, err := e.tr.TrueCOPFor(chillerID, band.Midpoint(), outdoorC, e.t)
	if err != nil {
		return 0, false
	}
	return cop, true
}

// abstainEstimator covers nothing: the sequencer falls back to the nameplate
// prior for every pair — the "no tasks conducted" extreme of Definition 1.
type abstainEstimator struct{}

func (abstainEstimator) Estimate(int, LoadBand, float64) (float64, bool) { return 0, false }

func testContext(tr *Trace, demandKW float64) DecisionContext {
	mid := tr.Records[len(tr.Records)/2]
	return DecisionContext{
		Building: tr.BuildingByID(0),
		DemandKW: demandKW,
		OutdoorC: mid.OutdoorTempC,
		Time:     mid.Time,
	}
}

func TestDecideBasic(t *testing.T) {
	tr := testTrace(t)
	ctx := testContext(tr, 900)
	d, err := NewSequencer().Decide(tr, ctx, abstainEstimator{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.ChillerIDs) == 0 {
		t.Fatal("empty staging")
	}
	if d.PLR <= 0 || d.PLR > 1 {
		t.Fatalf("PLR = %v", d.PLR)
	}
	if d.EstimatedPowerKW <= 0 {
		t.Fatalf("estimated power = %v", d.EstimatedPowerKW)
	}
	var capSum float64
	for _, id := range d.ChillerIDs {
		ch := tr.ChillerByID(id)
		if ch == nil || ch.Building != ctx.Building.ID {
			t.Fatalf("staging includes foreign chiller %d", id)
		}
		capSum += ch.Model.CapacityKW()
	}
	if math.Abs(d.PLR-ctx.DemandKW/capSum) > 1e-9 {
		t.Fatalf("PLR %v inconsistent with demand %v over capacity %v", d.PLR, ctx.DemandKW, capSum)
	}
}

func TestDecideDeterministic(t *testing.T) {
	tr := testTrace(t)
	ctx := testContext(tr, 1400)
	est := truthEstimator{tr, ctx.Time}
	a, err := NewSequencer().Decide(tr, ctx, est)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSequencer().Decide(tr, ctx, est)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same inputs, different decisions: %+v vs %+v", a, b)
	}
}

// TestDecideLowDemandFallback: demand so small every staging sits below
// MinPLR must still produce a decision (something has to serve the load).
func TestDecideLowDemandFallback(t *testing.T) {
	tr := testTrace(t)
	ctx := testContext(tr, 30)
	d, err := NewSequencer().Decide(tr, ctx, abstainEstimator{})
	if err != nil {
		t.Fatal(err)
	}
	if d.PLR >= NewSequencer().MinPLR {
		t.Fatalf("PLR %v should be below MinPLR for a 30 kW demand", d.PLR)
	}
}

func TestDecideErrors(t *testing.T) {
	tr := testTrace(t)
	seq := NewSequencer()
	mid := testContext(tr, 900)

	empty := &Trace{}
	if _, err := seq.Decide(empty, mid, abstainEstimator{}); !errors.Is(err, ErrNoRecords) {
		t.Fatalf("empty trace err = %v", err)
	}
	bad := mid
	bad.Building = nil
	if _, err := seq.Decide(tr, bad, abstainEstimator{}); !errors.Is(err, ErrBadContext) {
		t.Fatalf("nil building err = %v", err)
	}
	bad = mid
	bad.DemandKW = 0
	if _, err := seq.Decide(tr, bad, abstainEstimator{}); !errors.Is(err, ErrBadContext) {
		t.Fatalf("zero demand err = %v", err)
	}
	bad = mid
	bad.DemandKW = -5
	if _, err := seq.Decide(tr, bad, abstainEstimator{}); !errors.Is(err, ErrBadContext) {
		t.Fatalf("negative demand err = %v", err)
	}
	bad = mid
	bad.DemandKW = 1e9 // beyond plant capacity
	if _, err := seq.Decide(tr, bad, abstainEstimator{}); !errors.Is(err, ErrBadContext) {
		t.Fatalf("overload err = %v", err)
	}
	bad = mid
	bad.Building = &Building{ID: 42}
	if _, err := seq.Decide(tr, bad, abstainEstimator{}); !errors.Is(err, ErrBadContext) {
		t.Fatalf("unknown building err = %v", err)
	}
}

func TestDecisionPerformanceBounds(t *testing.T) {
	tr := testTrace(t)
	seq := NewSequencer()
	demands := []float64{300, 900, 1600, 2600, 4000}
	for _, demand := range demands {
		ctx := testContext(tr, demand)
		for name, est := range map[string]COPEstimator{
			"truth":   truthEstimator{tr, ctx.Time},
			"abstain": abstainEstimator{},
		} {
			h, err := DecisionPerformance(tr, seq, ctx, est)
			if err != nil {
				t.Fatal(err)
			}
			if h <= 0 || h > 1+1e-12 {
				t.Fatalf("%s at %v kW: H = %v outside (0, 1]", name, demand, h)
			}
		}
	}
}

// TestTruthEstimatorHelps: averaged over many contexts, band-midpoint truth
// must make decisions at least as good as the crude nameplate prior — this
// gap is what gives tasks their importance.
func TestTruthEstimatorHelps(t *testing.T) {
	tr := testTrace(t)
	seq := NewSequencer()
	var truthSum, abstainSum float64
	n := 0
	for _, demand := range []float64{400, 900, 1500, 2200, 3000} {
		for _, b := range tr.Buildings {
			ctx := testContext(tr, demand)
			ctx.Building = tr.BuildingByID(b.ID)
			ht, err := DecisionPerformance(tr, seq, ctx, truthEstimator{tr, ctx.Time})
			if err != nil {
				t.Fatal(err)
			}
			ha, err := DecisionPerformance(tr, seq, ctx, abstainEstimator{})
			if err != nil {
				t.Fatal(err)
			}
			truthSum += ht
			abstainSum += ha
			n++
		}
	}
	if truthSum/float64(n) < abstainSum/float64(n) {
		t.Fatalf("truth estimator underperforms the prior: %v < %v",
			truthSum/float64(n), abstainSum/float64(n))
	}
}

func TestSavingPerformanceBounds(t *testing.T) {
	tr := testTrace(t)
	seq := NewSequencer()
	for _, demand := range []float64{300, 900, 1600, 2600} {
		ctx := testContext(tr, demand)
		sv, err := SavingPerformance(tr, seq, ctx, truthEstimator{tr, ctx.Time})
		if err != nil {
			t.Fatal(err)
		}
		if sv < 0 || sv > 1 {
			t.Fatalf("saving performance %v outside [0, 1]", sv)
		}
	}
}

func TestPerformanceErrorPropagation(t *testing.T) {
	tr := testTrace(t)
	seq := NewSequencer()
	bad := testContext(tr, -1)
	if _, err := DecisionPerformance(tr, seq, bad, abstainEstimator{}); !errors.Is(err, ErrBadContext) {
		t.Fatalf("DecisionPerformance err = %v", err)
	}
	if _, err := SavingPerformance(tr, seq, bad, abstainEstimator{}); !errors.Is(err, ErrBadContext) {
		t.Fatalf("SavingPerformance err = %v", err)
	}
	overload := testContext(tr, 1e9)
	if _, err := DecisionPerformance(tr, seq, overload, abstainEstimator{}); !errors.Is(err, ErrBadContext) {
		t.Fatalf("overload err = %v", err)
	}
}

// referenceEvaluate is the decision evaluation written out directly: every
// staging's estimated and true power computed in one sweep, the chosen
// staging's true power and the all-on baseline computed again.
func referenceEvaluate(tr *Trace, seq *Sequencer, ctx DecisionContext, est COPEstimator) (chosenKW, optKW, allOnKW float64) {
	chs := tr.ChillersOf(ctx.Building.ID)
	cands := seq.candidates(chs, ctx.DemandKW)
	best := -1
	bestEst := math.Inf(1)
	optKW = math.Inf(1)
	for i, c := range cands {
		if p := seq.estimatedPower(chs, c, ctx, est); p < bestEst {
			bestEst = p
			best = i
		}
		if p := truePower(tr, chs, c, ctx); p < optKW {
			optKW = p
		}
	}
	chosenKW = truePower(tr, chs, cands[best], ctx)
	var capSum float64
	for i := range chs {
		capSum += chs[i].Model.CapacityKW()
	}
	allOnKW = truePower(tr, chs, candidate{mask: 1<<len(chs) - 1, capSum: capSum, plr: ctx.DemandKW / capSum}, ctx)
	return chosenKW, optKW, allOnKW
}

// countingEstimator answers with the truth on a skewed band and counts its
// queries, so a test can see that scoring asks it about every staging.
type countingEstimator struct {
	truth truthEstimator
	calls int
}

func (c *countingEstimator) Estimate(chillerID int, band LoadBand, outdoorC float64) (float64, bool) {
	c.calls++
	if chillerID%3 == 0 {
		return 0, false
	}
	return c.truth.Estimate(chillerID, (band+1)%3, outdoorC)
}

// TestPreparedDecisionMatchesReference: one prepared decision scored under
// several estimators gives bit for bit the powers the direct evaluation
// gives, and an estimator is asked exactly what the direct evaluation asks.
func TestPreparedDecisionMatchesReference(t *testing.T) {
	tr := testTrace(t)
	seq := NewSequencer()
	for _, demand := range []float64{30, 300, 900, 1600, 2600, 4000} {
		for _, b := range tr.Buildings {
			ctx := testContext(tr, demand)
			ctx.Building = tr.BuildingByID(b.ID)
			p, err := seq.Prepare(tr, ctx)
			if err != nil {
				t.Fatal(err)
			}
			for name, est := range map[string]func() COPEstimator{
				"truth":    func() COPEstimator { return truthEstimator{tr, ctx.Time} },
				"abstain":  func() COPEstimator { return abstainEstimator{} },
				"counting": func() COPEstimator { return &countingEstimator{truth: truthEstimator{tr, ctx.Time}} },
			} {
				prepared, direct := est(), est()
				c, o, a := p.evaluate(prepared)
				rc, ro, ra := referenceEvaluate(tr, seq, ctx, direct)
				if math.Float64bits(c) != math.Float64bits(rc) || math.Float64bits(o) != math.Float64bits(ro) ||
					math.Float64bits(a) != math.Float64bits(ra) {
					t.Fatalf("%s, building %d, %v kW: prepared (%v, %v, %v), direct (%v, %v, %v)",
						name, b.ID, demand, c, o, a, rc, ro, ra)
				}
				if pc, ok := prepared.(*countingEstimator); ok && pc.calls != direct.(*countingEstimator).calls {
					t.Fatalf("building %d, %v kW: prepared asked %d times, direct %d",
						b.ID, demand, pc.calls, direct.(*countingEstimator).calls)
				}
			}
		}
	}
}
