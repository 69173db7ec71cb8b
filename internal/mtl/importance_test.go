package mtl

import (
	"math"
	"testing"
	"time"

	"repro/internal/building"
)

// referenceImportance is Definition 1 computed the direct way: H(J;θ) from
// one pass of the full engine, then one pass per task through the task's
// EstimatorExcluding view, each pass scoring every building through
// building.DecisionPerformance with the estimator answering every query.
func referenceImportance(t *testing.T, e *Engine, seq *building.Sequencer, pc PlantContext) []float64 {
	t.Helper()
	overall := func(est building.COPEstimator) float64 {
		var sum float64
		for _, ctx := range pc.Contexts {
			h, err := building.DecisionPerformance(e.trace, seq, ctx, est)
			if err != nil {
				t.Fatal(err)
			}
			sum += h
		}
		return sum / float64(len(pc.Contexts))
	}
	full := overall(e)
	out := make([]float64, len(e.tasks))
	for _, task := range e.tasks {
		imp := full - overall(e.EstimatorExcluding(task.ID))
		if imp < 0 {
			imp = 0
		}
		out[task.ID] = imp
	}
	return out
}

// TestImportanceVectorMatchesReference holds ImportanceVector — prepared
// decisions, one tabulated estimate per (chiller, band), only the owning
// building re-scored per task — to the direct computation bit for bit, on
// every task of 120 daily epochs of three traces.
func TestImportanceVectorMatchesReference(t *testing.T) {
	seq := building.NewSequencer()
	for _, seed := range []int64{11, 12, 13} {
		tr := testTrace(t, seed)
		e := trainedEngine(t, tr)
		pcs := SampleContexts(tr, 24*time.Hour, 120)
		if len(pcs) < 100 {
			t.Fatalf("seed %d: %d epochs, want ≥ 100", seed, len(pcs))
		}
		nonzero := 0
		for _, pc := range pcs {
			got, err := e.ImportanceVector(seq, pc)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceImportance(t, e, seq, pc)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("seed %d, epoch %v, task %d: ImportanceVector %v, reference %v",
						seed, pc.Time, j, got[j], want[j])
				}
				if got[j] != 0 {
					nonzero++
				}
			}
		}
		if nonzero == 0 {
			t.Fatalf("seed %d: every importance is zero; the comparison proves nothing", seed)
		}
	}
}
