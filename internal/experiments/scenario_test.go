package experiments

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/rl"
	"repro/internal/serve"
)

// smallWorld is the benchmark's small world, written out as the benchmark
// writes it.
func smallWorld() ScenarioConfig {
	cfg := DefaultScenarioConfig(1)
	cfg.Years, cfg.Tasks, cfg.Workers = 1, 24, 5
	cfg.HistoryContexts, cfg.EvalContexts, cfg.CRLEpisodes = 40, 16, 10
	return cfg
}

// TestScenarioConfigScales: every -scale preset maps to a configuration and
// an unknown one is refused.
func TestScenarioConfigScales(t *testing.T) {
	for _, scale := range []string{"fast", "default", "full"} {
		if _, err := ScaledScenarioConfig(1, scale); err != nil {
			t.Fatalf("scale %s: %v", scale, err)
		}
	}
	if _, err := ScaledScenarioConfig(1, "huge"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

// TestLazyCRLTrainsOnceAndAsEagerly: concurrent first readers of a fresh
// scenario's CRL all get one trained model, and its snapshot is byte for
// byte that of a CRL trained here, eagerly, from the configuration the
// scenario has always trained with, over the scenario's store.
func TestLazyCRLTrainsOnceAndAsEagerly(t *testing.T) {
	s, err := NewScenario(fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	got := make([]*core.CRL, readers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			crl, err := s.CRL()
			if err != nil {
				t.Error(err)
			}
			got[i] = crl
		}(i)
	}
	wg.Wait()
	for i, crl := range got {
		if crl == nil || crl != got[0] {
			t.Fatalf("reader %d got %p, reader 0 got %p: not one training", i, crl, got[0])
		}
	}
	if !got[0].Trained() {
		t.Fatal("CRL returned untrained")
	}

	cfg := core.DefaultCRLConfig()
	cfg.Episodes = s.Config.CRLEpisodes
	cfg.Seed = s.Config.Seed + 101
	cfg.DQN = rl.DQNConfig{
		Hidden:          []int{48},
		BatchSize:       8,
		WarmupSteps:     64,
		TargetSyncEvery: 250,
		Epsilon: rl.EpsilonSchedule{
			Start: 1, End: 0.05,
			DecaySteps: s.Config.CRLEpisodes * (len(s.Template.Tasks) + s.Config.Workers) / 2,
		},
		Seed: s.Config.Seed + 202,
	}
	eager, err := core.NewCRL(s.Template.Clone(), s.Store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eager.Train(); err != nil {
		t.Fatal(err)
	}
	lazyBytes, err := got[0].MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	eagerBytes, err := eager.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lazyBytes, eagerBytes) {
		t.Fatal("lazily trained CRL differs from the eagerly trained one")
	}
}

// TestServingNeverTrainsScenarioCRL: a server booted the way dcta-server and
// the benchmark boot it — template, store and local model of a freshly built
// scenario — answers DCTA, CRL and feedback requests without the scenario's
// offline CRL ever being trained.
func TestServingNeverTrainsScenarioCRL(t *testing.T) {
	s, err := NewScenario(smallWorld())
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.DefaultConfig()
	cfg.CRL.Episodes = s.Config.CRLEpisodes
	cfg.Seed = 1
	cfg.Logf = func(string, ...any) {}
	srv, err := serve.NewServer(s.Template, s.Store, s.Local, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, ep := range s.Eval[:4] {
		feats, err := s.Extractor.Vectors(ep.FeatureCtx)
		if err != nil {
			t.Fatal(err)
		}
		for _, allocator := range []string{"dcta", "crl"} {
			resp, err := srv.Allocate(ctx, serve.AllocateRequest{Signature: ep.Signature, Features: feats, Allocator: allocator})
			if err != nil {
				t.Fatalf("epoch %d %s: %v", i, allocator, err)
			}
			if resp.Mode != serve.ModeNormal {
				t.Fatalf("epoch %d %s: mode %q", i, allocator, resp.Mode)
			}
			if _, err := srv.Feedback(ctx, serve.FeedbackRequest{
				Signature: ep.Signature, Features: feats, Allocation: resp.Allocation,
				Importance: ep.Importance, AddToStore: true,
			}); err != nil {
				t.Fatalf("epoch %d feedback: %v", i, err)
			}
		}
	}
	if st := srv.Stats(); st.DCTABypass == 0 || st.Allocates == st.DCTABypass || st.Feedbacks == 0 {
		t.Fatalf("stats %+v: a DCTA answer, a crl answer and a feedback must each have happened", st)
	}
	if s.crl.crl != nil {
		t.Fatal("serving trained the scenario's offline CRL")
	}
}

// TestDCTAAnswersWithoutTrainedCRL: F₁ is the defined environment's
// importance, so DCTA holds no CRL at all. Over the scenario's store and kNN
// policy it answers every evaluation epoch of the small world bit for bit
// like the decision composed from its parts — an untrained CRL's definition
// over the same store, Eq. 6's mix and the pack — and answering never
// trains the scenario's CRL.
func TestDCTAAnswersWithoutTrainedCRL(t *testing.T) {
	s, err := NewScenario(smallWorld())
	if err != nil {
		t.Fatal(err)
	}
	untrained, err := core.NewCRL(s.Template.Clone(), s.Store, s.crlConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := alloc.NewDCTA(s.Store, s.crlConfig(), s.Local)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for i, ep := range s.Eval {
		req, err := s.RequestFor(ep)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Allocate(req)
		if err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		env, err := untrained.DefineEnvironment(req.Signature)
		if err != nil {
			t.Fatal(err)
		}
		mixed, _, err := alloc.CombineScoresInto(s.Local, env.Importance, req.Features, d.W1, d.W2, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		plan, _ := alloc.PackByScoreInto(req.Problem, mixed, d.CoverageTarget, nil, &alloc.PackScratch{})
		var predicted float64
		for j, proc := range plan {
			if proc != core.Unassigned {
				predicted += env.Importance[j]
			}
		}
		for j := range plan {
			if got.Allocation[j] != plan[j] {
				t.Fatalf("epoch %d task %d: processor %d, composed from the parts %d", i, j, got.Allocation[j], plan[j])
			}
		}
		if !same(got.Priority, mixed) || !same([]float64{got.PredictedImportance}, []float64{predicted}) {
			t.Fatalf("epoch %d: answer differs from the one composed from the parts", i)
		}
	}
	if s.crl.crl != nil {
		t.Fatal("DCTA trained the scenario's CRL")
	}
}
