package serve

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// fakeClock drives Config.Now in breaker tests so open windows elapse
// without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
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

// TestBreakerOpenProbeClose walks the full breaker lifecycle on one cluster:
// consecutive failures open it, requests during the window are rejected
// without touching the trainer, an elapsed window admits exactly one
// half-open probe, and a successful probe closes the breaker.
func TestBreakerOpenProbeClose(t *testing.T) {
	ctx := context.Background()
	clock := newFakeClock()
	cfg := fastConfig()
	cfg.Now = clock.Now
	cfg.BreakerThreshold = 2
	cfg.BreakerBackoff = time.Second
	cfg.Logf = t.Logf
	s := newTestServer(t, cfg)

	fail := true
	var attempts int
	realTrain := s.cache.train
	var mu sync.Mutex
	s.cache.train = func(cluster int) (*core.CRL, []float64, error) {
		mu.Lock()
		attempts++
		broken := fail
		mu.Unlock()
		if broken {
			return nil, nil, errors.New("injected")
		}
		return realTrain(cluster)
	}
	req := AllocateRequest{Signature: []float64{0}}

	// Two consecutive failures cross the threshold and open the breaker.
	for i := 0; i < 2; i++ {
		resp, err := s.Allocate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.DegradedReason != DegradedTrainFailed {
			t.Fatalf("attempt %d: reason = %q", i, resp.DegradedReason)
		}
	}
	if state, failures := s.cache.breakerState(0); state != BreakerOpen || failures != 2 {
		t.Fatalf("breaker = %s/%d, want open/2", state, failures)
	}

	// While open: rejected before the trainer is ever called.
	resp, err := s.Allocate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.DegradedReason != DegradedCircuitOpen {
		t.Fatalf("open-window reason = %q", resp.DegradedReason)
	}
	if attempts != 2 {
		t.Fatalf("trainer called %d times during open window, want 2", attempts)
	}

	// Elapse the window (base 1s, ≤20% jitter): a probe is admitted but the
	// trainer still fails, so the breaker reopens with a doubled window.
	clock.Advance(1500 * time.Millisecond)
	if resp, err = s.Allocate(ctx, req); err != nil {
		t.Fatal(err)
	}
	if resp.DegradedReason != DegradedTrainFailed {
		t.Fatalf("failed-probe reason = %q", resp.DegradedReason)
	}
	if state, _ := s.cache.breakerState(0); state != BreakerOpen {
		t.Fatalf("breaker after failed probe = %s, want open", state)
	}
	// The reopened window doubled to ~2s: 1.5s is not enough.
	clock.Advance(1500 * time.Millisecond)
	if resp, err = s.Allocate(ctx, req); err != nil {
		t.Fatal(err)
	}
	if resp.DegradedReason != DegradedCircuitOpen {
		t.Fatalf("inside doubled window reason = %q", resp.DegradedReason)
	}

	// Heal the trainer, elapse the rest of the window: the probe succeeds and
	// the breaker closes; the same request now serves normally.
	mu.Lock()
	fail = false
	mu.Unlock()
	clock.Advance(time.Second)
	if resp, err = s.Allocate(ctx, req); err != nil {
		t.Fatal(err)
	}
	if resp.Mode != ModeNormal {
		t.Fatalf("post-recovery mode = %q (reason %q)", resp.Mode, resp.DegradedReason)
	}
	if state, failures := s.cache.breakerState(0); state != BreakerClosed || failures != 0 {
		t.Fatalf("breaker after recovery = %s/%d, want closed/0", state, failures)
	}
	stats := s.Stats().Cache
	if stats.BreakerOpens < 2 || stats.BreakerProbes != 2 || stats.BreakerRejects < 2 {
		t.Fatalf("breaker counters = opens %d probes %d rejects %d",
			stats.BreakerOpens, stats.BreakerProbes, stats.BreakerRejects)
	}
}

// TestTrainGateSaturation fills the training gate and its queue with hanging
// trainings; the next cold cluster must answer degraded immediately instead
// of queueing (and never 5xx).
func TestTrainGateSaturation(t *testing.T) {
	cfg := fastConfig()
	cfg.TrainConcurrency = 1
	cfg.TrainQueue = 1
	cfg.Logf = t.Logf
	s := serverWithStore(t, cfg, multiClusterStore(t, 3))

	release := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	started := make(chan int, 3)
	s.cache.train = func(cluster int) (*core.CRL, []float64, error) {
		started <- cluster
		<-release
		return nil, nil, errors.New("released")
	}

	// Two background requests occupy the running slot and the queue slot.
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, _ = s.Allocate(ctx, AllocateRequest{Signature: []float64{float64(c)}})
		}(c)
	}
	<-started // the running training is underway; the other is gated or queued
	for s.cache.pending.Load() < 2 {
		time.Sleep(time.Millisecond)
	}

	resp, err := s.Allocate(context.Background(), AllocateRequest{Signature: []float64{2}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Mode != ModeDegraded || resp.DegradedReason != DegradedSaturated {
		t.Fatalf("mode=%q reason=%q, want degraded/train_saturated", resp.Mode, resp.DegradedReason)
	}
	if got := s.Stats().Cache.Saturations; got != 1 {
		t.Fatalf("saturations = %d, want 1", got)
	}
	released = true
	close(release)
	wg.Wait()
}

// TestTrainGateOneSlotPerP: on the default config, GOMAXPROCS distinct cold
// clusters train side by side. Each training holds in the trainer until all
// of them have entered it, which happens only if the gate admits GOMAXPROCS
// at once.
func TestTrainGateOneSlotPerP(t *testing.T) {
	n := runtime.GOMAXPROCS(0)
	cfg := fastConfig()
	cfg.Logf = t.Logf
	s := serverWithStore(t, cfg, multiClusterStore(t, n))

	realTrain := s.cache.train
	entered, release := make(chan struct{}, n), make(chan struct{})
	s.cache.train = func(cluster int) (*core.CRL, []float64, error) {
		entered <- struct{}{}
		<-release
		return realTrain(cluster)
	}
	var wg sync.WaitGroup
	answers := make([]*AllocateResponse, n)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := s.Allocate(context.Background(), AllocateRequest{Signature: []float64{float64(c)}})
			if err != nil {
				t.Errorf("cluster %d: %v", c, err)
			}
			answers[c] = resp
		}(c)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for got := 0; got < n; got++ {
		select {
		case <-entered:
		case <-ctx.Done():
			close(release)
			wg.Wait()
			t.Fatalf("%d of %d cold trainings ran at once: the gate holds fewer than GOMAXPROCS slots", got, n)
		}
	}
	close(release)
	wg.Wait()
	for c, resp := range answers {
		if resp == nil || resp.Mode != ModeNormal || resp.Cache != CacheMiss {
			t.Fatalf("cluster %d answer = %+v, want normal miss", c, resp)
		}
	}
}

// TestTrainGateDefaults pins the gate's size: one slot per P, a single slot
// at GOMAXPROCS 1, and a queue twice as deep.
func TestTrainGateDefaults(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		cfg := Config{}.withDefaults()
		if cfg.TrainConcurrency != procs || cfg.TrainQueue != 2*procs {
			t.Errorf("GOMAXPROCS %d: gate %d, queue %d; want %d, %d",
				procs, cfg.TrainConcurrency, cfg.TrainQueue, procs, 2*procs)
		}
	}
}

// TestTrainBudgetDegradesThenWarms bounds the cold-path wait: a training
// slower than TrainBudget answers degraded, the training finishes in the
// background, and the next request hits the warmed cache.
func TestTrainBudgetDegradesThenWarms(t *testing.T) {
	cfg := fastConfig()
	cfg.TrainBudget = 20 * time.Millisecond
	cfg.Logf = t.Logf
	s := newTestServer(t, cfg)

	realTrain := s.cache.train
	gate := make(chan struct{})
	s.cache.train = func(cluster int) (*core.CRL, []float64, error) {
		<-gate
		return realTrain(cluster)
	}

	resp, err := s.Allocate(context.Background(), AllocateRequest{Signature: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Mode != ModeDegraded || resp.DegradedReason != DegradedTrainBudget {
		t.Fatalf("mode=%q reason=%q, want degraded/train_budget", resp.Mode, resp.DegradedReason)
	}

	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Cache.Trainings == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background training never completed")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err = s.Allocate(context.Background(), AllocateRequest{Signature: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Mode != ModeNormal || resp.Cache != CacheHit {
		t.Fatalf("post-warm mode=%q cache=%q, want normal/hit", resp.Mode, resp.Cache)
	}
	if got := s.Stats().Cache.BudgetMisses; got != 1 {
		t.Fatalf("budget misses = %d, want 1", got)
	}
}

// TestEvictionSkipsInFlight pins evictLocked's in-flight rule: entries whose
// leader has not published survive even when the cache is over capacity.
func TestEvictionSkipsInFlight(t *testing.T) {
	cfg := fastConfig()
	cfg.CacheCapacity = 1
	cfg.TrainConcurrency = 4
	cfg.TrainQueue = 4
	cfg.Logf = t.Logf
	s := serverWithStore(t, cfg, multiClusterStore(t, 4))

	realTrain := s.cache.train
	started, release := make(chan struct{}, 3), make(chan struct{})
	s.cache.train = func(cluster int) (*core.CRL, []float64, error) {
		started <- struct{}{}
		<-release
		return realTrain(cluster)
	}

	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if _, err := s.Allocate(context.Background(), AllocateRequest{Signature: []float64{float64(c)}}); err != nil {
				t.Errorf("cluster %d: %v", c, err)
			}
		}(c)
	}
	// A training starts only after its entry is in the map.
	for c := 0; c < 3; c++ {
		<-started
	}
	over, evictions := s.cache.entryCount(), s.cache.evictions.Load()
	if over != 3 || evictions != 0 {
		t.Fatalf("in-flight: %d entries, %d evictions; want 3 entries, 0 evictions", over, evictions)
	}

	close(release)
	wg.Wait()
	// The next training re-runs eviction and shrinks the cache to capacity.
	if _, err := s.Allocate(context.Background(), AllocateRequest{Signature: []float64{3}}); err != nil {
		t.Fatal(err)
	}
	size := s.cache.entryCount()
	if size > 1 {
		t.Fatalf("post-churn cache size = %d, want ≤ capacity 1", size)
	}
}

// TestEvictionWhileRolloutInFlight: churn evicts a cluster's entry while a
// request is still rolling out that entry's policy. The rollout only reads
// the policy, so it finishes and answers normally with the plan it would
// have given anyway, and the evicted cluster simply retrains on next use.
func TestEvictionWhileRolloutInFlight(t *testing.T) {
	ctx := context.Background()
	cfg := fastConfig()
	cfg.CacheCapacity = 1
	cfg.Logf = t.Logf
	s := serverWithStore(t, cfg, multiClusterStore(t, 3))

	baseline, err := s.Allocate(ctx, AllocateRequest{Signature: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	e0 := s.cache.entry(0)
	if e0 == nil {
		t.Fatal("cluster 0 entry missing after allocate")
	}
	// Hold cluster 0's next rollout inside the policy until the churn is done.
	started, release := make(chan struct{}), make(chan struct{})
	roll := s.rollout
	s.rollout = func(crl *core.CRL, r *core.Rollout, env *core.Environment, out core.Allocation) (core.Allocation, error) {
		if crl == e0.crl {
			close(started)
			<-release
		}
		return roll(crl, r, env, out)
	}
	var inflight *AllocateResponse
	var inflightErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		inflight, inflightErr = s.Allocate(ctx, AllocateRequest{Signature: []float64{0}})
	}()
	<-started

	// Churn the capacity-1 cache through two other clusters; cluster 0's
	// entry is evicted while its policy is mid-rollout.
	for c := 1; c <= 2; c++ {
		if _, err := s.Allocate(ctx, AllocateRequest{Signature: []float64{float64(c)}}); err != nil {
			t.Fatal(err)
		}
	}
	if s.cache.entry(0) != nil {
		t.Fatal("cluster 0 still resident after churn past capacity")
	}
	if s.Stats().Cache.Evictions < 2 {
		t.Fatalf("evictions = %d, want ≥2", s.Stats().Cache.Evictions)
	}

	close(release)
	<-done
	if inflightErr != nil {
		t.Fatal(inflightErr)
	}
	if inflight.Mode != ModeNormal || inflight.Cache != CacheHit {
		t.Fatalf("in-flight request on the evicted policy = %+v, want a normal hit", inflight)
	}
	if !slices.Equal(inflight.Allocation, baseline.Allocation) {
		t.Fatalf("in-flight allocation %v, before eviction %v", inflight.Allocation, baseline.Allocation)
	}

	// The evicted cluster retrains on demand.
	resp, err := s.Allocate(ctx, AllocateRequest{Signature: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != CacheMiss {
		t.Fatalf("post-eviction cache outcome = %q, want miss", resp.Cache)
	}
}

// TestRolloutPanicDegradesAndEntryKeepsServing: a rollout that panics answers
// its request degraded ("policy_error") and drops the request workspace's
// half-written scratch; the policy was only read, so the same entry serves
// the next request normally, with the same plan as before.
func TestRolloutPanicDegradesAndEntryKeepsServing(t *testing.T) {
	ctx := context.Background()
	cfg := fastConfig()
	cfg.Logf = t.Logf
	s := newTestServer(t, cfg)
	req := AllocateRequest{Signature: []float64{0}}
	ws := s.getWS()
	if err := s.AllocateInto(ctx, req, ws); err != nil {
		t.Fatal(err)
	}
	baseline := slices.Clone(ws.resp.Allocation)
	entry := s.cache.entry(0)

	healthy := s.rollout
	s.rollout = func(crl *core.CRL, r *core.Rollout, env *core.Environment, out core.Allocation) (core.Allocation, error) {
		if _, err := healthy(crl, r, env, out); err != nil {
			return out, err
		}
		panic("chaos: poisoned rollout")
	}
	if err := s.AllocateInto(ctx, req, ws); err != nil {
		t.Fatal(err)
	}
	if ws.resp.Mode != ModeDegraded || ws.resp.DegradedReason != DegradedPolicyError {
		t.Fatalf("panicking rollout answered %+v, want degraded %q", ws.resp, DegradedPolicyError)
	}
	if !reflect.DeepEqual(ws.rollout, core.Rollout{}) {
		t.Fatal("the panicked rollout's scratch was kept")
	}

	s.rollout = healthy
	if err := s.AllocateInto(ctx, req, ws); err != nil {
		t.Fatal(err)
	}
	if ws.resp.Mode != ModeNormal || ws.resp.Cache != CacheHit || s.cache.entry(0) != entry {
		t.Fatalf("post-panic request = %+v, want a normal hit on the same entry", ws.resp)
	}
	if !slices.Equal(ws.resp.Allocation, baseline) {
		t.Fatalf("post-panic allocation %v, before %v", ws.resp.Allocation, baseline)
	}
	if st := s.Stats(); st.DegradedCount != 1 || st.Cache.Trainings != 1 {
		t.Fatalf("stats after one panic: %d degraded, %d trainings; want 1 and 1", st.DegradedCount, st.Cache.Trainings)
	}
}
