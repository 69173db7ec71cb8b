package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/mathx"
	"repro/internal/rl"
)

// testTemplate builds a tight 6-task / 2-processor TATIM structure: each
// processor fits two unit-cost tasks, so an allocator must drop two of six —
// importance ranking is observable in which tasks survive.
func testTemplate() *core.Problem {
	p := &core.Problem{TimeLimit: 2}
	for j := 0; j < 6; j++ {
		p.Tasks = append(p.Tasks, core.TaskSpec{ID: j, TimeCost: 1, Resource: 0.5})
	}
	for i := 0; i < 2; i++ {
		p.Processors = append(p.Processors, core.Processor{ID: i, Capacity: 2, SpeedFactor: 1})
	}
	return p
}

// clusterImportance gives cluster 0 heavy tasks 0-2 and cluster 1 heavy
// tasks 3-5.
func clusterImportance(cluster int) []float64 {
	imp := make([]float64, 6)
	for j := range imp {
		imp[j] = 0.05
	}
	for j := 0; j < 3; j++ {
		imp[3*cluster+j] = 0.9
	}
	return imp
}

// twoClusterStore builds the acceptance-test store: two well-separated
// historical environments at signatures 0 and 1.
func twoClusterStore(t *testing.T) *core.EnvironmentStore {
	t.Helper()
	store := core.NewEnvironmentStore()
	for cluster := 0; cluster < 2; cluster++ {
		if err := store.Add(&core.Environment{
			Importance: clusterImportance(cluster),
			Capacity:   []float64{2, 2},
			Signature:  []float64{float64(cluster)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// fastConfig keeps per-cluster training to a few milliseconds.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.ClusterNeighborhood = 1 // sub-store = the cluster representative
	cfg.CRL = core.CRLConfig{
		K:        1,
		Episodes: 8,
		Seed:     11,
		DQN: rl.DQNConfig{
			Hidden:      []int{16},
			BatchSize:   8,
			WarmupSteps: 16,
			Epsilon:     rl.EpsilonSchedule{Start: 1, End: 0.1, DecaySteps: 60},
			Seed:        12,
		},
	}
	return cfg
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewServer(testTemplate(), twoClusterStore(t), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// heavyAssigned checks that every heavy task of the cluster survived the
// packing — the "correct allocation" bar: the two dropped tasks must come
// from the unimportant tail.
func heavyAssigned(allocation []int, cluster int) error {
	for j := 0; j < 3; j++ {
		if task := 3*cluster + j; allocation[task] == core.Unassigned {
			return fmt.Errorf("cluster %d dropped heavy task %d (allocation %v)", cluster, task, allocation)
		}
	}
	return nil
}

// TestConcurrentAllocateSingleflight is the PR's acceptance test: 64
// concurrent /v1/allocate-equivalent calls against a 2-cluster store must
// train exactly 2 policies (one per cluster, singleflight) and return
// correct, mutually identical allocations per cluster.
func TestConcurrentAllocateSingleflight(t *testing.T) {
	s := newTestServer(t, fastConfig())
	const requests = 64
	type answer struct {
		cluster    int
		allocation []int
	}
	answers := make([]answer, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cluster := i % 2
			// Signatures near but not exactly on the stored ones: 0±0.1
			// maps to cluster 0, 1±0.1 to cluster 1.
			z := float64(cluster) + 0.1 - 0.2*float64(i%3)/2
			resp, err := s.Allocate(context.Background(), AllocateRequest{Signature: []float64{z}})
			if err != nil {
				errs[i] = err
				return
			}
			if resp.Cluster != cluster {
				errs[i] = fmt.Errorf("request %d: cluster %d, want %d", i, resp.Cluster, cluster)
				return
			}
			answers[i] = answer{cluster: resp.Cluster, allocation: resp.Allocation}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	stats := s.Stats()
	if stats.Cache.Trainings != 2 {
		t.Fatalf("trainings = %d, want exactly 2 (singleflight)", stats.Cache.Trainings)
	}
	if stats.Cache.Misses != 2 {
		t.Fatalf("misses = %d, want 2", stats.Cache.Misses)
	}
	if got := stats.Cache.Hits + stats.Cache.Coalesced; got != requests-2 {
		t.Fatalf("hits+coalesced = %d, want %d", got, requests-2)
	}
	if stats.Allocates != requests {
		t.Fatalf("allocates = %d", stats.Allocates)
	}
	template := testTemplate()
	var first [2][]int
	for i, a := range answers {
		prob := template.Clone()
		if err := prob.CheckFeasible(core.Allocation(a.allocation)); err != nil {
			t.Fatalf("request %d infeasible: %v", i, err)
		}
		if err := heavyAssigned(a.allocation, a.cluster); err != nil {
			t.Fatal(err)
		}
		if first[a.cluster] == nil {
			first[a.cluster] = a.allocation
			continue
		}
		for j := range a.allocation {
			if a.allocation[j] != first[a.cluster][j] {
				t.Fatalf("request %d: cluster %d allocations diverge at task %d", i, a.cluster, j)
			}
		}
	}
}

func TestAllocateValidation(t *testing.T) {
	s := newTestServer(t, fastConfig())
	ctx := context.Background()
	if _, err := s.Allocate(ctx, AllocateRequest{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty signature err = %v", err)
	}
	if _, err := s.Allocate(ctx, AllocateRequest{Signature: []float64{0}, Allocator: "nope"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown allocator err = %v", err)
	}
	if _, err := s.Allocate(ctx, AllocateRequest{Signature: []float64{0}, Allocator: "dcta"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("dcta without features err = %v", err)
	}
	if _, err := s.Allocate(ctx, AllocateRequest{Signature: []float64{0, 1}}); err == nil {
		t.Fatal("signature dimension mismatch accepted")
	}
	s.Drain()
	// Draining allocates still answer — degraded, without starting trainings.
	resp, err := s.Allocate(ctx, AllocateRequest{Signature: []float64{0}})
	if err != nil {
		t.Fatalf("draining allocate err = %v", err)
	}
	if resp.Mode != ModeDegraded || resp.DegradedReason != DegradedDraining {
		t.Fatalf("draining allocate mode=%q reason=%q, want degraded/draining", resp.Mode, resp.DegradedReason)
	}
	if _, err := s.Feedback(ctx, FeedbackRequest{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining feedback err = %v", err)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	cfg := fastConfig()
	cfg.CacheCapacity = 1
	s := newTestServer(t, cfg)
	ctx := context.Background()
	for i, want := range []struct {
		z       float64
		outcome string
	}{
		{0, CacheMiss},
		{1, CacheMiss}, // evicts cluster 0
		{0, CacheMiss}, // cold again
		{0, CacheHit},
	} {
		resp, err := s.Allocate(ctx, AllocateRequest{Signature: []float64{want.z}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cache != want.outcome {
			t.Fatalf("request %d: cache = %q, want %q", i, resp.Cache, want.outcome)
		}
	}
	stats := s.Stats().Cache
	if stats.Evictions != 2 || stats.Size != 1 {
		t.Fatalf("evictions = %d size = %d, want 2 and 1", stats.Evictions, stats.Size)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	var clockMu sync.Mutex
	cfg := fastConfig()
	cfg.PolicyTTL = time.Minute
	cfg.Now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	s := newTestServer(t, cfg)
	ctx := context.Background()
	req := AllocateRequest{Signature: []float64{0}}
	if resp, err := s.Allocate(ctx, req); err != nil || resp.Cache != CacheMiss {
		t.Fatalf("first = %v, %v", resp, err)
	}
	if resp, err := s.Allocate(ctx, req); err != nil || resp.Cache != CacheHit {
		t.Fatalf("warm = %v, %v", resp, err)
	}
	clockMu.Lock()
	now = now.Add(2 * time.Minute)
	clockMu.Unlock()
	resp, err := s.Allocate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != CacheExpired {
		t.Fatalf("expired outcome = %+v", resp)
	}
	if stats := s.Stats().Cache; stats.Expired != 1 || stats.Trainings != 2 {
		t.Fatalf("cache stats after TTL: %+v", stats)
	}
}

// mkFeatures builds Table-I-shaped feature vectors whose first component
// leaks the given importance — enough signal for the local process.
func mkFeatures(imp []float64, noise float64, seed int64) [][]float64 {
	rng := mathx.NewRand(seed)
	out := make([][]float64, len(imp))
	for j := range out {
		v := make([]float64, features.Dim)
		v[0] = imp[j] + rng.NormFloat64()*noise
		for k := 1; k < features.Dim; k++ {
			v[k] = rng.NormFloat64() * 0.1
		}
		out[j] = v
	}
	return out
}

func TestFeedbackRefitEnablesDCTA(t *testing.T) {
	cfg := fastConfig()
	cfg.RefitEvery = 12 // two 6-sample feedbacks trigger a refit
	s := newTestServer(t, cfg)
	ctx := context.Background()
	imp := clusterImportance(0)
	feats := mkFeatures(imp, 0.05, 5)

	// Before any feedback the auto path falls back to CRL.
	resp, err := s.Allocate(ctx, AllocateRequest{Signature: []float64{0}, Features: feats})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Allocator != "CRL" {
		t.Fatalf("allocator before feedback = %q", resp.Allocator)
	}

	// Stream two decisions' worth of feedback; heavy tasks ran, tail dropped.
	executed := []int{0, 0, 1, core.Unassigned, core.Unassigned, 1}
	var fb *FeedbackResponse
	for i := 0; i < 2; i++ {
		fb, err = s.Feedback(ctx, FeedbackRequest{
			Signature:  []float64{0},
			Features:   mkFeatures(imp, 0.05, int64(20+i)),
			Allocation: executed,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !fb.Refitted || fb.WindowSize != 12 {
		t.Fatalf("feedback = %+v, want refit at window 12", fb)
	}
	resp, err = s.Allocate(ctx, AllocateRequest{Signature: []float64{0}, Features: feats})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Allocator != "DCTA" {
		t.Fatalf("allocator after refit = %q", resp.Allocator)
	}
	if err := heavyAssigned(resp.Allocation, 0); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.Refits != 1 || got.Feedbacks != 2 {
		t.Fatalf("stats after feedback: %+v", got)
	}
}

// TestFeedbackWindowSnapshots checks the ring-held window against the slice
// it replaces (append, then drop the oldest beyond MaxFeedback): every refit
// snapshot holds the same samples in the same order, across several
// wrap-arounds, with feedback sizes that do not divide the window and one
// burst larger than it.
func TestFeedbackWindowSnapshots(t *testing.T) {
	cfg := fastConfig()
	cfg.RefitEvery = 500
	s := newTestServer(t, cfg)
	var snapshots [][]alloc.LocalSample
	s.fit = func(seed int64, samples []alloc.LocalSample) (*alloc.LocalModel, error) {
		snapshots = append(snapshots, samples)
		return alloc.NewLocalModel(seed), nil
	}
	var want [][]alloc.LocalSample
	var ref []alloc.LocalSample
	sinceFit, id := 0, 0
	sizes := []int{7, 13, 6, 29}
	for i := 0; i < 1200; i++ {
		n := sizes[i%len(sizes)]
		if i == 300 {
			n = cfg.MaxFeedback + 904
		}
		feats := make([][]float64, n)
		executed := make([]int, n)
		for j := range feats {
			feats[j] = []float64{float64(id)}
			if id%3 == 0 {
				executed[j] = core.Unassigned
			}
			id++
		}
		fb, err := s.Feedback(context.Background(), FeedbackRequest{Features: feats, Allocation: executed})
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, alloc.SamplesFromDecision(feats, executed)...)
		if over := len(ref) - cfg.MaxFeedback; over > 0 {
			ref = append(ref[:0:0], ref[over:]...)
		}
		if sinceFit += n; sinceFit >= cfg.RefitEvery {
			sinceFit = 0
			want = append(want, append([]alloc.LocalSample(nil), ref...))
		}
		if fb.WindowSize != len(ref) {
			t.Fatalf("feedback %d: window %d, want %d", i, fb.WindowSize, len(ref))
		}
	}
	if id < 3*cfg.MaxFeedback {
		t.Fatalf("only %d samples: the window wrapped fewer than three times", id)
	}
	if !reflect.DeepEqual(snapshots, want) {
		t.Fatalf("%d refit snapshots differ from the slice window's %d", len(snapshots), len(want))
	}
}

// TestRefitPublishesOnlyNewer overlaps two refits: the first fit is held
// until the second, on a newer window, has published. The first then
// finishes last, and the served model must stay the second.
func TestRefitPublishesOnlyNewer(t *testing.T) {
	cfg := fastConfig()
	cfg.RefitEvery = 6 // every 6-task feedback refits
	s := newTestServer(t, cfg)
	ctx := context.Background()
	entered, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var calls int
	var second *alloc.LocalModel
	s.fit = func(seed int64, samples []alloc.LocalSample) (*alloc.LocalModel, error) {
		mu.Lock()
		calls++
		call := calls
		mu.Unlock()
		if call == 1 {
			close(entered)
			<-release
		}
		m, err := fitLocal(seed, samples)
		if call == 2 {
			second = m
		}
		return m, err
	}
	imp := clusterImportance(0)
	executed := []int{0, 0, 1, core.Unassigned, core.Unassigned, 1}
	first := make(chan *FeedbackResponse, 1)
	go func() {
		fb, err := s.Feedback(ctx, FeedbackRequest{Features: mkFeatures(imp, 0.05, 51), Allocation: executed})
		if err != nil {
			t.Error(err)
		}
		first <- fb
	}()
	<-entered
	fb, err := s.Feedback(ctx, FeedbackRequest{Features: mkFeatures(imp, 0.05, 52), Allocation: executed})
	if err != nil {
		t.Fatal(err)
	}
	if !fb.Refitted || s.localModel() != second {
		t.Fatalf("second refit did not publish: %+v", fb)
	}
	close(release)
	if fb := <-first; fb == nil || fb.Refitted {
		t.Fatalf("the older fit reported publishing: %+v", fb)
	}
	if s.localModel() != second {
		t.Fatal("the older fit replaced the newer model")
	}
	if got := s.Stats().Refits; got != 1 {
		t.Fatalf("refits = %d, want 1", got)
	}
}

func TestDriftInvalidationRetrains(t *testing.T) {
	s := newTestServer(t, fastConfig())
	ctx := context.Background()
	req := AllocateRequest{Signature: []float64{0}}
	if _, err := s.Allocate(ctx, req); err != nil {
		t.Fatal(err)
	}
	// Mild feedback: importance close to the trained snapshot — no drift.
	near := clusterImportance(0)
	near[5] += 0.05
	fb, err := s.Feedback(ctx, FeedbackRequest{
		Signature:  []float64{0},
		Features:   mkFeatures(near, 0.05, 31),
		Allocation: []int{0, 0, 1, core.Unassigned, core.Unassigned, 1},
		Importance: near,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fb.DriftInvalidated {
		t.Fatal("mild importance change invalidated the policy")
	}
	if resp, err := s.Allocate(ctx, req); err != nil || resp.Cache != CacheHit {
		t.Fatalf("after mild feedback: %+v, %v", resp, err)
	}
	// The world flips: cluster 0's signature now carries cluster 1's
	// importance. Drift detection must invalidate and the next allocate
	// retrain.
	flipped := clusterImportance(1)
	fb, err = s.Feedback(ctx, FeedbackRequest{
		Signature:  []float64{0},
		Features:   mkFeatures(flipped, 0.05, 32),
		Allocation: []int{core.Unassigned, core.Unassigned, 0, 0, 1, 1},
		Importance: flipped,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fb.DriftInvalidated {
		t.Fatal("importance flip not detected as drift")
	}
	resp, err := s.Allocate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != CacheDrift {
		t.Fatalf("post-drift cache = %q", resp.Cache)
	}
	if stats := s.Stats().Cache; stats.DriftInvalidations != 1 || stats.Trainings != 2 {
		t.Fatalf("cache stats after drift: %+v", stats)
	}
}

func TestFeedbackGrowsStore(t *testing.T) {
	s := newTestServer(t, fastConfig())
	ctx := context.Background()
	before := s.Store().Len()
	imp := clusterImportance(1)
	fb, err := s.Feedback(ctx, FeedbackRequest{
		Signature:  []float64{0.45}, // between the clusters
		Features:   mkFeatures(imp, 0.05, 41),
		Allocation: []int{core.Unassigned, core.Unassigned, 0, 0, 1, 1},
		Importance: imp,
		AddToStore: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fb.StoredEnvironment {
		t.Fatal("environment not stored")
	}
	if got := s.Store().Len(); got != before+1 {
		t.Fatalf("store len = %d, want %d", got, before+1)
	}
	// The new environment is now a cluster of its own: a query right on it
	// must key a fresh policy, not one of the original clusters.
	resp, err := s.Allocate(ctx, AllocateRequest{Signature: []float64{0.45}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cluster != before || resp.Cache != CacheMiss {
		t.Fatalf("new-cluster allocate = %+v, want cluster %d miss", resp, before)
	}
	if err := heavyAssigned(resp.Allocation, 1); err != nil {
		t.Fatal(err)
	}
}

func TestNewServerValidation(t *testing.T) {
	store := twoClusterStore(t)
	if _, err := NewServer(nil, store, nil, Config{}); err == nil {
		t.Fatal("nil template accepted")
	}
	if _, err := NewServer(&core.Problem{}, store, nil, Config{}); err == nil {
		t.Fatal("invalid template accepted")
	}
	if _, err := NewServer(testTemplate(), core.NewEnvironmentStore(), nil, Config{}); !errors.Is(err, core.ErrEmptyStore) {
		t.Fatalf("empty store err = %v", err)
	}
}
