package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/mathx"
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

// fastConfig is the fixtures' configuration: a cluster's sub-store is its
// representative alone, and K=1 defines every request's environment as it.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.ClusterNeighborhood = 1
	cfg.CRL = core.CRLConfig{K: 1}
	return cfg
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	return serverWithStore(t, cfg, twoClusterStore(t))
}

// multiClusterStore builds n well-separated environments at signatures
// 0..n-1, alternating the two importance patterns of clusterImportance.
func multiClusterStore(t *testing.T, n int) *core.EnvironmentStore {
	t.Helper()
	store := core.NewEnvironmentStore()
	for c := 0; c < n; c++ {
		if err := store.Add(&core.Environment{
			Importance: clusterImportance(c % 2),
			Capacity:   []float64{2, 2},
			Signature:  []float64{float64(c)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

func serverWithStore(t *testing.T, cfg Config, store *core.EnvironmentStore) *Server {
	t.Helper()
	s, err := NewServer(testTemplate(), store, nil, cfg)
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

// TestConcurrentAllocateAgrees: 64 concurrent /v1/allocate-equivalent calls
// on the crl arm against a 2-cluster store return correct, mutually
// identical allocations per cluster, every one in normal mode from the first
// request on.
func TestConcurrentAllocateAgrees(t *testing.T) {
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
			if resp.Cluster != cluster || resp.Mode != ModeNormal || resp.Allocator != "CRL" ||
				resp.Cache != CacheBypass || resp.TrainNanos != 0 {
				errs[i] = fmt.Errorf("request %d: answered %+v, want a normal CRL answer for cluster %d", i, resp, cluster)
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
	if stats := s.Stats(); stats.Allocates != requests || stats.DegradedCount != 0 || stats.DCTABypass != 0 {
		t.Fatalf("stats = %+v, want %d crl answers", stats, requests)
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
	// Draining allocates still answer, degraded.
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

	// Before any feedback the auto path takes the crl arm.
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
	// is answered for it, not for one of the original clusters.
	resp, err := s.Allocate(ctx, AllocateRequest{Signature: []float64{0.45}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cluster != before || resp.Mode != ModeNormal {
		t.Fatalf("new-cluster allocate = %+v, want cluster %d, normal", resp, before)
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

// TestFeedbackSeqDedupe covers the router-replay hazard: feedback refits are
// not idempotent, so a client-supplied seq must make the second application a
// visible no-op.
func TestFeedbackSeqDedupe(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, fastConfig())
	executed := []int{0, 0, 1, core.Unassigned, core.Unassigned, 1}
	req := FeedbackRequest{
		Signature:  []float64{0},
		Features:   mkFeatures(clusterImportance(0), 0.05, 60),
		Allocation: executed,
		Seq:        41,
	}
	first, err := s.Feedback(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Duplicate {
		t.Fatalf("first application flagged duplicate: %+v", first)
	}
	second, err := s.Feedback(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Duplicate {
		t.Fatalf("replayed seq applied again: %+v", second)
	}
	if second.WindowSize != first.WindowSize {
		t.Fatalf("duplicate moved the window: %d → %d", first.WindowSize, second.WindowSize)
	}
	if got := s.Stats().FeedbackDuplicates; got != 1 {
		t.Fatalf("feedback_duplicates = %d, want 1", got)
	}

	// A fresh seq and seq-less requests still apply.
	fresh := req
	fresh.Seq = 42
	if resp, err := s.Feedback(ctx, fresh); err != nil || resp.Duplicate {
		t.Fatalf("fresh seq refused: %+v err=%v", resp, err)
	}
	seqless := req
	seqless.Seq = 0
	for i := 0; i < 2; i++ {
		if resp, err := s.Feedback(ctx, seqless); err != nil || resp.Duplicate {
			t.Fatalf("seq-less feedback %d refused: %+v err=%v", i, resp, err)
		}
	}
}

// TestFeedbackRejectsUnstorableEnvironment: an add_to_store feedback whose
// signature is not as wide as the store's, or whose importance does not hold
// one entry per task, is a bad request that changes nothing — no sample
// enters the window, its seq is not recorded (so the corrected retry
// applies, not answers duplicate) and the store does not grow.
func TestFeedbackRejectsUnstorableEnvironment(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, fastConfig())
	imp := clusterImportance(0)
	good := FeedbackRequest{
		Signature:  []float64{0.3},
		Features:   mkFeatures(imp, 0.05, 70),
		Allocation: []int{0, 0, 1, core.Unassigned, core.Unassigned, 1},
		Importance: imp,
		AddToStore: true,
		Seq:        7,
	}
	wide := good
	wide.Signature = []float64{0.3, 0.1, 0.2}
	short := good
	short.Importance = imp[:4]
	for name, req := range map[string]FeedbackRequest{"3-wide signature": wide, "4 importance entries": short} {
		if _, err := s.Feedback(ctx, req); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s: err = %v, want ErrBadRequest", name, err)
		}
		if st := s.Stats(); st.WindowSize != 0 || st.StoreSize != 2 || st.Feedbacks != 0 {
			t.Fatalf("%s: window %d, store %d, feedbacks %d; want 0, 2, 0",
				name, st.WindowSize, st.StoreSize, st.Feedbacks)
		}
	}
	resp, err := s.Feedback(ctx, good)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Duplicate || !resp.StoredEnvironment || resp.WindowSize != 6 {
		t.Fatalf("corrected retry: %+v, want applied and stored with 6 samples", resp)
	}
	if got := s.Store().Len(); got != 3 {
		t.Fatalf("store len = %d, want 3", got)
	}
}
