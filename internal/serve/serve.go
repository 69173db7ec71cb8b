// Package serve turns the one-shot TATIM pipeline into a long-running
// allocation service: the serve-side shape of Alg. 1. A request carries the
// sensing signature Z observed right now; the service clusters it onto the
// nearest historical environment (§III-C's e = kNN(ℰ, Z)), looks the cluster
// up in a per-cluster policy cache, and rolls the cached policy to a
// feasible allocation. Cold clusters train exactly once under concurrent
// identical requests (singleflight); warm answers are a kNN probe plus a
// greedy DQN rollout of the cluster's one resident policy, through scratch
// the request owns. Feedback requests stream
// alloc.LocalModel samples online and may append observed environments to
// the historical store, so the service keeps re-solving TATIM as importance
// drifts — the paper's motivating loop (§III, Theorem 1) — without ever
// retraining from scratch: entries retrain per cluster on TTL expiry or
// observed importance drift, and checkpoints serialize the cache through
// core.CRL.MarshalJSON so a restarted server resumes warm.
//
// The package splits into:
//
//   - cache.go      — the per-cluster policy cache (LRU + TTL + drift +
//     singleflight), the per-cluster training circuit breaker and the
//     global bounded-concurrency training gate
//   - server.go     — Server: allocate/feedback/stats against a template,
//     store and local model
//   - fallback.go   — the degraded-mode allocator: when the policy path
//     fails (training error, budget overrun, open breaker, saturated
//     gate, draining), answer from a density-greedy knapsack pack over
//     the kNN-matched importance, corrected by the local SVM when fitted
//   - http.go       — the HTTP/JSON API (/v1/allocate, /v1/feedback,
//     /v1/stats, /healthz) with request timeouts, panic recovery and
//     graceful drain
//   - checkpoint.go — warm-start snapshots of the policy cache with
//     CRC-framed sections and atomic file replacement
package serve

import (
	"errors"
	"log"
	"runtime"
	"time"

	"repro/internal/core"
)

// Common errors.
var (
	// ErrBadRequest is returned for malformed allocation/feedback requests.
	ErrBadRequest = errors.New("serve: bad request")
	// ErrNonFinite is returned (wrapped in ErrBadRequest) when a request
	// carries NaN or ±Inf where a finite number is required. JSON cannot
	// encode them natively, but a client using an extended encoder could
	// smuggle one in — and a single NaN data size silently poisons every
	// knapsack feasibility comparison downstream, so they are rejected at
	// the boundary.
	ErrNonFinite = errors.New("non-finite number")
	// ErrDraining is returned once the server has begun shutting down.
	ErrDraining = errors.New("serve: draining")
	// ErrCircuitOpen reports that a cluster's training circuit breaker is
	// open: recent trainings kept failing, so the policy path refuses to
	// retry until the backoff window elapses. Allocate answers such
	// requests from the degraded fallback path instead of surfacing this.
	ErrCircuitOpen = errors.New("serve: training circuit open")
	// ErrTrainSaturated reports that the global training gate is full: the
	// concurrency semaphore and its queue are both occupied, so no new
	// cluster training may start. Allocate degrades instead of queueing.
	ErrTrainSaturated = errors.New("serve: training gate saturated")
	// ErrTrainBudget reports that a training ran longer than
	// Config.TrainBudget. The training continues in the background and
	// will warm the cache; the waiting request degrades.
	ErrTrainBudget = errors.New("serve: training exceeded budget")
)

// Config tunes the allocation service.
type Config struct {
	// ClusterNeighborhood is the number of nearest stored environments that
	// form a cluster's training sub-store — the per-cluster slice of history
	// the policy generalizes over (default 5).
	ClusterNeighborhood int
	// CRL is the per-cluster training configuration (episode budget, kNN
	// blending, DQN shape). Zero values fall back to core defaults; a zero
	// StopWindow additionally enables serve's convergence-based early
	// stopping (window 3, floor 6 episodes — set StopWindow < 0 to burn the
	// full budget unconditionally).
	CRL core.CRLConfig
	// DisableWarmStart turns off neighbour warm-start: by default a cold
	// cluster's training seeds its DQN from the nearest already-trained
	// resident policy (signature distance) and fine-tunes on a reduced
	// episode budget instead of training from scratch.
	DisableWarmStart bool
	// WarmEpisodeFrac scales the episode budget of warm-started trainings
	// (default 1/4, at least one episode). The transferred policy only
	// needs fine-tuning, not a full from-scratch run.
	WarmEpisodeFrac float64
	// SpeculateNeighbors enables the background pre-trainer: after every
	// successful demand training, up to this many nearest untrained
	// neighbour clusters are trained speculatively on idle training-gate
	// capacity, strictly subordinate to demand trainings (a speculative run
	// only starts when the gate has a free slot and nothing demand-side is
	// pending, and yields between episodes as soon as demand arrives).
	// 0 (the default) disables speculation.
	SpeculateNeighbors int
	// CacheCapacity bounds resident cluster policies; least-recently-used
	// entries are evicted beyond it (default 64).
	CacheCapacity int
	// PolicyTTL retrains entries older than this on their next use.
	// 0 disables age-based retraining.
	PolicyTTL time.Duration
	// DriftThreshold invalidates a cluster's policy when feedback reports an
	// observed importance whose relative L2 distance from the policy's
	// train-time importance exceeds it (default 0.35; <0 disables).
	DriftThreshold float64
	// CacheShards is the target shard count for the policy-cache lock:
	// cluster keys map onto a power-of-two shard array so cache hits never
	// serialize behind one global mutex or an unrelated cluster's cold
	// train. Rounded down to the largest power of two ≤ min(CacheShards,
	// CacheCapacity), so a capacity-1 cache keeps exact global LRU
	// semantics (default 8).
	CacheShards int
	// RefitEvery refits the local model after this many fresh feedback
	// samples (default 256).
	RefitEvery int
	// MaxFeedback bounds the retained feedback sample window (default 4096).
	MaxFeedback int
	// W1, W2 and CoverageTarget mirror the alloc.DCTA knobs for requests
	// that carry per-task features (defaults 0.5 / 0.5 / 0.9).
	W1, W2         float64
	CoverageTarget float64
	// Seed derives deterministic per-cluster training seeds.
	Seed int64
	// Now is the service clock (tests inject a fake; default time.Now).
	Now func() time.Time

	// TrainBudget bounds how long an allocate request waits for the policy
	// training it leads or joins; past the budget the request answers from
	// the degraded fallback path while the training finishes in the
	// background and warms the cache. 0 (the default) waits until the
	// request context expires. The budget timer runs on the wall clock,
	// not Now.
	TrainBudget time.Duration
	// BreakerThreshold opens a cluster's training circuit breaker after
	// this many consecutive training failures (default 3; <0 disables the
	// breaker). While open, requests for the cluster degrade instead of
	// retraining; after the backoff window a single half-open probe
	// training decides whether the breaker closes or reopens.
	BreakerThreshold int
	// BreakerBackoff is the first open window. Each reopen doubles it
	// (with up to 20% deterministic jitter) up to BreakerMaxBackoff
	// (defaults 1s / 2min).
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
	// TrainConcurrency bounds concurrently running cluster trainings — the
	// global gate that keeps a cold burst of distinct signatures from
	// fork-bombing trainings (default GOMAXPROCS: one training per P, so
	// concurrent cold clusters train side by side instead of queueing). A
	// burst that fills every slot also holds every P, and a warm hit then
	// waits for a preemption slice; set it below GOMAXPROCS to keep CPUs
	// free for warm answers.
	TrainConcurrency int
	// TrainQueue bounds trainings waiting on the gate beyond the running
	// ones; when queue and gate are both full, new cold clusters answer
	// degraded instead of queueing (default 2×TrainConcurrency).
	TrainQueue int
	// Logf sinks service logs: recovered panics, breaker transitions,
	// skipped checkpoint sections (default log.Printf).
	Logf func(format string, args ...any)
}

// DefaultConfig returns the serving defaults.
func DefaultConfig() Config { return Config{}.withDefaults() }

func (c Config) withDefaults() Config {
	if c.ClusterNeighborhood < 1 {
		c.ClusterNeighborhood = 5
	}
	if c.CacheCapacity < 1 {
		c.CacheCapacity = 64
	}
	if c.WarmEpisodeFrac <= 0 || c.WarmEpisodeFrac > 1 {
		c.WarmEpisodeFrac = 1.0 / 4
	}
	if c.DriftThreshold == 0 {
		c.DriftThreshold = 0.35
	}
	if c.CacheShards < 1 {
		c.CacheShards = 8
	}
	if c.RefitEvery < 1 {
		c.RefitEvery = 256
	}
	if c.MaxFeedback < 1 {
		c.MaxFeedback = 4096
	}
	if c.W1 == 0 && c.W2 == 0 {
		c.W1, c.W2 = 0.5, 0.5
	}
	if c.CoverageTarget <= 0 || c.CoverageTarget > 1 {
		c.CoverageTarget = 0.9
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerBackoff <= 0 {
		c.BreakerBackoff = time.Second
	}
	if c.BreakerMaxBackoff <= 0 {
		c.BreakerMaxBackoff = 2 * time.Minute
	}
	if c.TrainConcurrency < 1 {
		c.TrainConcurrency = runtime.GOMAXPROCS(0)
	}
	if c.TrainQueue < 1 {
		c.TrainQueue = 2 * c.TrainConcurrency
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}
