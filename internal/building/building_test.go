package building

import (
	"math"
	"sync"
	"testing"
)

// testTrace memoizes a small trace shared by read-only tests.
var (
	testTraceOnce sync.Once
	testTraceVal  *Trace
	testTraceErr  error
)

func testTrace(t *testing.T) *Trace {
	t.Helper()
	testTraceOnce.Do(func() {
		testTraceVal, testTraceErr = Generate(Config{Seed: 1, StartYear: 2015, Years: 1, StepHours: 3})
	})
	if testTraceErr != nil {
		t.Fatal(testTraceErr)
	}
	return testTraceVal
}

func TestModelTypeStrings(t *testing.T) {
	cases := []struct {
		m    ModelType
		want string
	}{
		{ModelCentrifugal, "centrifugal"},
		{ModelScrew, "screw"},
		{ModelAbsorption, "absorption"},
		{ModelType(7), "ModelType(7)"},
		{ModelType(-1), "ModelType(-1)"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("ModelType(%d).String() = %q, want %q", int(c.m), got, c.want)
		}
	}
}

func TestModelSpecsSane(t *testing.T) {
	for _, m := range []ModelType{ModelCentrifugal, ModelScrew, ModelAbsorption} {
		if m.CapacityKW() <= 0 {
			t.Errorf("%v capacity = %v", m, m.CapacityKW())
		}
		if m.RatedCOP() <= 0 {
			t.Errorf("%v rated COP = %v", m, m.RatedCOP())
		}
	}
	// Absorption machines are heat-driven: far lower COP than electric ones.
	if !(ModelAbsorption.RatedCOP() < ModelScrew.RatedCOP() &&
		ModelScrew.RatedCOP() < ModelCentrifugal.RatedCOP()) {
		t.Errorf("rated COP ordering violated: %v %v %v",
			ModelCentrifugal.RatedCOP(), ModelScrew.RatedCOP(), ModelAbsorption.RatedCOP())
	}
}

func TestBandOf(t *testing.T) {
	cases := []struct {
		plr  float64
		want LoadBand
	}{
		{0, BandLow},
		{0.3, BandLow},
		{0.4499, BandLow},
		{0.45, BandMid},
		{0.6, BandMid},
		{0.7499, BandMid},
		{0.75, BandHigh},
		{0.9, BandHigh},
		{1, BandHigh},
	}
	for _, c := range cases {
		if got := BandOf(c.plr); got != c.want {
			t.Errorf("BandOf(%v) = %v, want %v", c.plr, got, c.want)
		}
	}
}

func TestBandMidpointsInsideBands(t *testing.T) {
	for _, b := range []LoadBand{BandLow, BandMid, BandHigh} {
		mid := b.Midpoint()
		if BandOf(mid) != b {
			t.Errorf("midpoint %v of band %v falls in band %v", mid, b, BandOf(mid))
		}
	}
	// The exact midpoints are shared with the MTL engine's evaluation points.
	if BandLow.Midpoint() != 0.30 || BandMid.Midpoint() != 0.60 || BandHigh.Midpoint() != 0.85 {
		t.Errorf("midpoints = %v %v %v", BandLow.Midpoint(), BandMid.Midpoint(), BandHigh.Midpoint())
	}
}

func TestBandStrings(t *testing.T) {
	cases := []struct {
		b    LoadBand
		want string
	}{
		{BandLow, "low"},
		{BandMid, "mid"},
		{BandHigh, "high"},
		{LoadBand(9), "LoadBand(9)"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Errorf("LoadBand(%d).String() = %q, want %q", int(c.b), got, c.want)
		}
	}
}

func TestConditionOf(t *testing.T) {
	cases := []struct {
		temp float64
		want WeatherCondition
	}{
		{-5, WeatherCool},
		{17.99, WeatherCool},
		{18, WeatherMild},
		{23.99, WeatherMild},
		{24, WeatherWarm},
		{28.99, WeatherWarm},
		{29, WeatherHotHumid},
		{40, WeatherHotHumid},
	}
	for _, c := range cases {
		if got := ConditionOf(c.temp); got != c.want {
			t.Errorf("ConditionOf(%v) = %v, want %v", c.temp, got, c.want)
		}
	}
}

func TestConditionStrings(t *testing.T) {
	cases := []struct {
		c    WeatherCondition
		want string
	}{
		{WeatherCool, "cool"},
		{WeatherMild, "mild"},
		{WeatherWarm, "warm"},
		{WeatherHotHumid, "hot-humid"},
		{WeatherCondition(9), "WeatherCondition(9)"},
	}
	for _, c := range cases {
		if got := c.c.String(); got != c.want {
			t.Errorf("WeatherCondition(%d).String() = %q, want %q", int(c.c), got, c.want)
		}
	}
}

// TestTrueCOPPhysicsShape checks the hidden COP model behaves like chiller
// physics: efficiency peaks near the model's optimal PLR and electric
// machines lose efficiency as outdoor temperature (condenser lift) rises.
func TestTrueCOPPhysicsShape(t *testing.T) {
	tr := testTrace(t)
	for _, ch := range tr.Chillers() {
		spec := modelSpecs[ch.Model]
		atOpt, err := tr.TrueCOPFor(ch.ID, spec.optPLR, 24, tr.Records[0].Time)
		if err != nil {
			t.Fatal(err)
		}
		for _, plr := range []float64{0.15, 1.0} {
			off, err := tr.TrueCOPFor(ch.ID, plr, 24, tr.Records[0].Time)
			if err != nil {
				t.Fatal(err)
			}
			if off > atOpt+1e-9 {
				t.Errorf("chiller %d: COP at plr=%v (%v) beats optimum %v (%v)",
					ch.ID, plr, off, spec.optPLR, atOpt)
			}
		}
		cool, err := tr.TrueCOPFor(ch.ID, spec.optPLR, 18, tr.Records[0].Time)
		if err != nil {
			t.Fatal(err)
		}
		hot, err := tr.TrueCOPFor(ch.ID, spec.optPLR, 33, tr.Records[0].Time)
		if err != nil {
			t.Fatal(err)
		}
		if cool < hot {
			t.Errorf("chiller %d: COP should not improve with condenser lift (18°C %v < 33°C %v)",
				ch.ID, cool, hot)
		}
	}
}

func TestTrueCOPBounded(t *testing.T) {
	tr := testTrace(t)
	for _, ch := range tr.Chillers() {
		for _, plr := range []float64{0, 0.25, 0.5, 0.75, 1} {
			for _, temp := range []float64{-10, 0, 15, 24, 30, 45} {
				cop, err := tr.TrueCOPFor(ch.ID, plr, temp, tr.Records[0].Time)
				if err != nil {
					t.Fatal(err)
				}
				if cop < 0.3 || cop > 8 || math.IsNaN(cop) {
					t.Fatalf("chiller %d plr=%v temp=%v: COP %v out of [0.3, 8]",
						ch.ID, plr, temp, cop)
				}
			}
		}
	}
}

// Midpoint is the representative part-load ratio of the band.
func (b LoadBand) Midpoint() float64 {
	switch b {
	case BandLow:
		return 0.30
	case BandMid:
		return 0.60
	default:
		return 0.85
	}
}
