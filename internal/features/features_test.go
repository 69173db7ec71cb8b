package features

import (
	"errors"
	"testing"
	"time"

	"repro/internal/building"
	"repro/internal/mtl"
)

func fixture(t *testing.T) (*building.Trace, *mtl.Engine, *Extractor) {
	t.Helper()
	tr, err := building.Generate(building.Config{
		Seed: 1, StartYear: 2015, Years: 1, StepHours: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := mtl.NewEngine(tr, mtl.DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Fit(); err != nil {
		t.Fatal(err)
	}
	ex, err := NewExtractor(tr, engine)
	if err != nil {
		t.Fatal(err)
	}
	return tr, engine, ex
}

func midTraceContext(tr *building.Trace) Context {
	mid := tr.Records[len(tr.Records)/2]
	return Context{
		Time:         mid.Time,
		OutdoorTempC: mid.OutdoorTempC,
		Condition:    mid.Condition,
	}
}

func TestNamesMatchDim(t *testing.T) {
	if len(Names()) != Dim {
		t.Fatalf("Names() has %d entries, Dim = %d", len(Names()), Dim)
	}
}

func TestNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, n := range Names() {
		if seen[n] {
			t.Fatalf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
}

// TestBandBiasInLoadColumn pins where the band encoding lives: two tasks of
// the same chiller in different bands differ exactly at the
// latest_cooling_load column (index 9), by the band-bias delta.
func TestBandBiasInLoadColumn(t *testing.T) {
	tr, engine, ex := fixture(t)
	ctx := midTraceContext(tr)
	tasks := engine.Tasks()
	for i := range tasks {
		for j := i + 1; j < len(tasks); j++ {
			if tasks[i].ChillerID != tasks[j].ChillerID || tasks[i].Band == tasks[j].Band {
				continue
			}
			vi, err := ex.Vector(tasks[i].ID, ctx)
			if err != nil {
				t.Fatal(err)
			}
			vj, err := ex.Vector(tasks[j].ID, ctx)
			if err != nil {
				t.Fatal(err)
			}
			for k := range vi {
				switch k {
				case 0, 1:
					// past_success and prediction_accuracy are per-task.
				case 9:
					want := bandBias(tasks[i].Band) - bandBias(tasks[j].Band)
					if got := vi[k] - vj[k]; got != want {
						t.Fatalf("column 9 delta = %v, want band bias delta %v", got, want)
					}
				default:
					if vi[k] != vj[k] {
						t.Fatalf("column %d differs (%v vs %v); only column 9 encodes the band", k, vi[k], vj[k])
					}
				}
			}
			return
		}
	}
	t.Skip("no same-chiller band pair in task set")
}

func TestVectorShapeAndContent(t *testing.T) {
	tr, _, ex := fixture(t)
	ctx := midTraceContext(tr)
	v, err := ex.Vector(0, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != Dim {
		t.Fatalf("vector length = %d, want %d", len(v), Dim)
	}
	// Exactly one model one-hot fires.
	if v[3]+v[4]+v[5] != 1 {
		t.Fatalf("model one-hot = %v %v %v", v[3], v[4], v[5])
	}
	// Weather features present.
	if v[8] != ctx.OutdoorTempC || v[7] != float64(ctx.Condition) {
		t.Fatalf("weather features wrong: %v", v)
	}
	// Latest-record features should be populated mid-trace.
	if v[6] <= 0 || v[10] <= 0 || v[11] <= 0 {
		t.Fatalf("latest-record features empty: %v", v)
	}
	if _, err := ex.Vector(-1, ctx); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("bad id err = %v", err)
	}
	if _, err := ex.Vector(9999, ctx); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("big id err = %v", err)
	}
}

func TestVectorBeforeTraceStart(t *testing.T) {
	tr, _, ex := fixture(t)
	ctx := Context{
		Time:         tr.Records[0].Time.Add(-24 * time.Hour),
		OutdoorTempC: 25,
		Condition:    building.WeatherWarm,
	}
	v, err := ex.Vector(0, ctx)
	if err != nil {
		t.Fatal(err)
	}
	// No history yet: record-derived features are zero (plus band bias).
	if v[6] != 0 || v[10] != 0 || v[11] != 0 {
		t.Fatalf("pre-history features should be zero: %v", v)
	}
}

func TestPastSuccessCounter(t *testing.T) {
	tr, _, ex := fixture(t)
	ctx := midTraceContext(tr)
	if ex.success[3] != 0 {
		t.Fatal("fresh counter should be 0")
	}
	if err := ex.RecordSuccess(3); err != nil {
		t.Fatal(err)
	}
	if err := ex.RecordSuccess(3); err != nil {
		t.Fatal(err)
	}
	if ex.success[3] != 2 {
		t.Fatalf("past success counter = %v", ex.success[3])
	}
	v, err := ex.Vector(3, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 2 {
		t.Fatalf("past_success feature = %v, want 2", v[0])
	}
	if err := ex.RecordSuccess(-1); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("bad id err = %v", err)
	}
}

func TestPredictionAccuracyBounded(t *testing.T) {
	tr, _, ex := fixture(t)
	ctx := midTraceContext(tr)
	vs, err := ex.Vectors(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != len(ex.tasks) {
		t.Fatalf("Vectors count = %d", len(vs))
	}
	for i, v := range vs {
		if v[1] <= 0 || v[1] > 1 {
			t.Fatalf("task %d prediction_accuracy = %v outside (0,1]", i, v[1])
		}
	}
}

func TestBandsDistinguishable(t *testing.T) {
	tr, engine, ex := fixture(t)
	ctx := midTraceContext(tr)
	// Find two tasks on the same chiller with different bands.
	tasks := engine.Tasks()
	for i := range tasks {
		for j := i + 1; j < len(tasks); j++ {
			if tasks[i].ChillerID == tasks[j].ChillerID && tasks[i].Band != tasks[j].Band {
				vi, err := ex.Vector(tasks[i].ID, ctx)
				if err != nil {
					t.Fatal(err)
				}
				vj, err := ex.Vector(tasks[j].ID, ctx)
				if err != nil {
					t.Fatal(err)
				}
				same := true
				for k := range vi {
					if vi[k] != vj[k] {
						same = false
					}
				}
				if same {
					t.Fatalf("tasks %v and %v have identical features", tasks[i], tasks[j])
				}
				return
			}
		}
	}
	t.Skip("no same-chiller band pair in task set")
}

func TestSanitize(t *testing.T) {
	v := []float64{1, nan(), inf(), -inf(), 2}
	Sanitize(v)
	if v[1] != 0 || v[2] != 0 || v[3] != 0 || v[0] != 1 || v[4] != 2 {
		t.Fatalf("Sanitize = %v", v)
	}
}

func nan() float64 { return zero() / zero() }
func inf() float64 { return 1 / zero() }
func zero() float64 {
	var z float64
	return z
}

func TestNewExtractorValidation(t *testing.T) {
	if _, err := NewExtractor(nil, nil); !errors.Is(err, building.ErrNoRecords) {
		t.Fatalf("nil trace err = %v", err)
	}
}
