package dcta_test

// The per-cluster training recipe the benchmark times (bench/sut.go) — a
// cluster's neighbourhood sub-store, per-cluster seeds, the 3-episode
// plateau window, a quarter of the episode budget when a donor warm-starts
// it — rebuilt on the benchmark's two worlds, for the recorded-hash test
// below, the heap budget in training_alloc_test.go and BenchmarkCRLTrain.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/serve"
)

// trainWorld is a scenario with every cluster's training sub-store.
type trainWorld struct {
	scn  *dcta.Scenario
	subs []*core.EnvironmentStore
}

var (
	smallOnce sync.Once
	smallScn  *dcta.Scenario
	smallErr  error
)

// smallConfig is the benchmark's small world: 24 tasks × 5 processors, 40
// stored clusters.
func smallConfig() dcta.ScenarioConfig {
	cfg := dcta.DefaultScenarioConfig(1)
	cfg.Years, cfg.Tasks, cfg.Workers = 1, 24, 5
	cfg.HistoryContexts, cfg.EvalContexts, cfg.CRLEpisodes = 40, 16, 10
	return cfg
}

// smallScenario is the small world, built once per test binary.
func smallScenario(tb testing.TB) *dcta.Scenario {
	tb.Helper()
	smallOnce.Do(func() {
		smallScn, smallErr = dcta.NewScenario(smallConfig())
	})
	if smallErr != nil {
		tb.Fatal(smallErr)
	}
	return smallScn
}

func newTrainWorld(tb testing.TB, scn *dcta.Scenario) *trainWorld {
	tb.Helper()
	w := &trainWorld{scn: scn}
	for _, rep := range scn.Store.All() {
		near, err := scn.Store.Nearest(rep.Signature, serve.DefaultConfig().ClusterNeighborhood)
		if err != nil {
			tb.Fatal(err)
		}
		sub := core.NewEnvironmentStore()
		for _, env := range near {
			if err := sub.Add(env); err != nil {
				tb.Fatal(err)
			}
		}
		w.subs = append(w.subs, sub)
	}
	return w
}

// train trains cluster c's policy from scratch, or fine-tunes it from donor on
// the warm-start budget.
func (w *trainWorld) train(tb testing.TB, c int, donor *core.CRL) *core.CRL {
	tb.Helper()
	cfg := core.CRLConfig{
		K: core.DefaultCRLConfig().K, Blend: true,
		Episodes:   w.scn.Config.CRLEpisodes,
		Seed:       1 + int64(c)*7919,
		StopWindow: 3,
	}
	cfg.DQN.Seed = cfg.Seed + 1
	if donor != nil {
		cfg.Episodes = max(1, int(float64(cfg.Episodes)*serve.DefaultConfig().WarmEpisodeFrac))
	}
	crl, err := core.NewCRL(w.scn.Template.Clone(), w.subs[c], cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if donor != nil {
		if err := crl.WarmStartFrom(donor, core.WarmStart{Source: -1}); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := crl.Train(); err != nil {
		tb.Fatal(err)
	}
	return crl
}

// hashWords hashes a stream of 64-bit words.
func hashWords(words []uint64) string {
	h := sha256.New()
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// weightsHash hashes the bit patterns of the policy's online weights and
// biases.
func weightsHash(tb testing.TB, crl *core.CRL) string {
	tb.Helper()
	blob, err := crl.MarshalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	var snap struct {
		Policy struct {
			Weights [][]float64 `json:"weights"`
			Biases  [][]float64 `json:"biases"`
		} `json:"policy"`
	}
	if err := json.Unmarshal(blob, &snap); err != nil {
		tb.Fatal(err)
	}
	var bits []uint64
	for _, vec := range append(snap.Policy.Weights, snap.Policy.Biases...) {
		for _, v := range vec {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return hashWords(bits)
}

// allocationsHash rolls the policy over every epoch of the world — the stored
// environments, then the evaluation epochs — and hashes the allocations.
func (w *trainWorld) allocationsHash(tb testing.TB, crl *core.CRL) (int, string) {
	tb.Helper()
	envs := w.scn.Store.All()
	for _, ep := range w.scn.Eval {
		envs = append(envs, &core.Environment{Importance: ep.Importance, Signature: ep.Signature})
	}
	var plan []uint64
	out := make([]core.Allocation, 1)
	for _, env := range envs {
		if err := crl.PredictBatchInto([]*core.Environment{env}, out); err != nil {
			tb.Fatal(err)
		}
		for _, p := range out[0] {
			plan = append(plan, uint64(int64(p)))
		}
	}
	return len(envs), hashWords(plan)
}

// TestSeededTrainingMatchesRecordedHashes holds seeded training to what it
// was before the learning step was cut down (bootstrap memo, live-column
// gradient step, allocation-free episode loop): two policies trained on the
// paper world by the recipe above — from scratch, and warm-started from that
// one — end with the online weights, and give over all 72 epochs the
// allocations, recorded before that work. The hashes are of
// float bit patterns, and Go fuses multiply-adds on some architectures, so
// the record holds for amd64.
func TestSeededTrainingMatchesRecordedHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("hashes recorded on amd64, running on %s", runtime.GOARCH)
	}
	w := newTrainWorld(t, benchScenario(t))
	scratch := w.train(t, 0, nil)
	warm := w.train(t, 1, scratch)
	for _, rec := range []struct {
		name                 string
		crl                  *core.CRL
		weights, allocations string
	}{
		{"scratch", scratch, "05f1590759b6119b", "88837be22632dfa4"},
		{"warm-started", warm, "fdae7a14605a44f1", "fa189556f651e8eb"},
	} {
		if got := weightsHash(t, rec.crl); got != rec.weights {
			t.Errorf("%s: online weights hash %s, recorded %s", rec.name, got, rec.weights)
		}
		epochs, got := w.allocationsHash(t, rec.crl)
		if epochs != 72 || got != rec.allocations {
			t.Errorf("%s: allocations over %d epochs hash %s, recorded %s over 72", rec.name, epochs, got, rec.allocations)
		}
	}
}
