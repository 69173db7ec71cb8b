package serve

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mathx"
)

// Cache outcomes reported per allocation (AllocateResponse.Cache).
const (
	// CacheHit served from a resident, fresh policy.
	CacheHit = "hit"
	// CacheMiss trained the cluster's policy on this request (the leader).
	CacheMiss = "miss"
	// CacheCoalesced joined a training already in flight (singleflight).
	CacheCoalesced = "coalesced"
	// CacheExpired retrained a policy older than the TTL.
	CacheExpired = "expired"
	// CacheDrift retrained a policy invalidated by importance drift.
	CacheDrift = "drift"
	// CacheWarm served from a checkpoint-restored policy that has not been
	// retrained in this process.
	CacheWarm = "warm"
	// CacheSpeculative served from a policy the background pre-trainer built
	// before any request asked for it. The first such hit promotes the entry
	// (full TTL from promotion time); the outcome keeps reporting the
	// speculative provenance so operators can see transfer efficacy.
	CacheSpeculative = "speculative"
	// CacheReplica served from a policy a peer shard replicated here — the
	// receiving side of the replica-group push. Replica entries are exempt
	// from demand TTL churn (the primary retrains and re-pushes; the replica
	// only holds the copy for failover) but drift invalidation stays live.
	CacheReplica = "replica"
	// CacheBypass marks an answer for which no policy was consulted: the
	// degraded fallback, or a DCTA answer (Mode tells them apart). Either
	// way it was computed directly from the store.
	CacheBypass = "bypass"
)

// Training provenance of a resolved cache entry. TTL and drift treat
// provenances differently: an unpromoted speculative policy lives on half
// the TTL and half the drift tolerance until real traffic confirms it.
const (
	provDemand      = iota // trained because a request needed it
	provCheckpoint         // restored from a checkpoint, not trained here
	provSpeculative        // pre-trained on idle gate capacity
	provReplica            // pushed by the cluster's primary owner
)

// specFraction discounts the TTL and drift tolerance of speculative policies
// that no request has confirmed yet.
const specFraction = 0.5

// Circuit-breaker states (CacheStats.Breakers keys, test assertions).
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// trainFunc trains the policy for one cluster, returning the model and the
// train-time importance snapshot used for drift detection.
type trainFunc func(cluster int) (*core.CRL, []float64, error)

// policyEntry is one cached cluster policy. Its lifecycle is
// singleflight-shaped: a background leader goroutine trains and then closes
// ready; every requester (the one that created the entry included) blocks on
// ready, its context, or the train budget, and shares the result. Entries
// are immutable once resolved except for the stale marker and the promotion
// time. A resolved entry's crl is read-only: every request rolls it out
// concurrently through its own scratch (core.CRL.RolloutInto).
type policyEntry struct {
	key  int
	elem *list.Element

	ready chan struct{} // closed once crl/err are set
	crl   *core.CRL
	imp   []float64 // train-time importance snapshot (drift baseline)
	err   error
	// trainedAt and prov describe provenance: provCheckpoint entries were
	// restored rather than trained in this process, provSpeculative ones
	// were pre-trained before any request asked.
	trainedAt time.Time
	prov      int
	resolved  bool // guarded by the shard mutex
	trainDur  time.Duration

	// promotedAt is the UnixNano time real traffic first hit a speculative
	// entry (0 = unpromoted). Promotion grants the full TTL measured from
	// that moment; atomic so checkpointing never races the serving path.
	promotedAt atomic.Int64

	stale atomic.Bool // set by drift detection; next get retrains
}

// resolvedEntry builds an entry for a policy that arrives already trained:
// restored from a checkpoint, pushed by a peer or pre-trained speculatively.
func resolvedEntry(key int, crl *core.CRL, imp []float64, trainedAt time.Time, prov int) *policyEntry {
	e := &policyEntry{
		key:       key,
		ready:     make(chan struct{}),
		crl:       crl,
		imp:       imp,
		trainedAt: trainedAt,
		prov:      prov,
		resolved:  true,
	}
	close(e.ready)
	return e
}

// breaker is one cluster's training circuit breaker. All fields are guarded
// by the owning shard's mutex.
type breaker struct {
	state     string
	failures  int           // consecutive training failures
	window    time.Duration // next open window (exponential, jittered)
	openUntil time.Time
	probing   bool // a half-open trial training is in flight
}

// cacheShard is one lock domain of the policy cache: an independent LRU map
// plus the breakers of the clusters that hash here. Cluster keys are store
// indices, so key & mask spreads contiguous clusters round-robin across
// shards and a hit never contends with another shard's cold train.
type cacheShard struct {
	c        *policyCache
	capacity int

	mu       sync.Mutex
	entries  map[int]*policyEntry
	lru      *list.List // front = most recently used; values are *policyEntry
	breakers map[int]*breaker
	rng      *rand.Rand // breaker jitter (guarded by mu)
}

// policyCache is the per-cluster policy cache: key = nearest stored
// environment (the cluster of Alg. 1 line 2), value = trained policy
// snapshot. The key space is sharded over a power-of-two array of
// independently locked LRU maps; entries retrain on TTL expiry or importance
// drift; cold clusters train exactly once under concurrent identical
// requests. Trainings run in background goroutines behind a global
// bounded-concurrency gate, guarded per cluster by a circuit breaker so
// persistent failures back off instead of burning the gate.
type policyCache struct {
	capacity    int
	ttl         time.Duration
	drift       float64
	now         func() time.Time
	train       trainFunc
	trainBudget time.Duration
	threshold   int // breaker failure threshold; <=0 disables
	baseBackoff time.Duration
	maxBackoff  time.Duration
	logf        func(format string, args ...any)

	gate    chan struct{} // training-concurrency semaphore, one slot per P by default
	pending atomic.Int64  // demand trainings running or queued on the gate
	maxWait int64         // pending ceiling (gate capacity + queue)

	// onTrained, when non-nil, runs after every successful demand training,
	// on the training's goroutine once it has released its gate slot and its
	// pending count — the speculative pre-trainer's trigger: the hot cluster
	// just trained, so predict and warm its neighbours off the request path.
	onTrained func(cluster int)

	// onReplicate, when non-nil, runs after every successful demand training
	// and after the first promotion of a speculative entry — the replication
	// sender's trigger. It must never block (the replicator's enqueue is a
	// non-blocking channel send); it is called inline from the serving path.
	onReplicate func(cluster int)

	shards []*cacheShard
	mask   int

	// counters (atomics so Stats never contends with the serving path)
	hits, misses, coalesced  atomic.Int64
	expired, driftRetrains   atomic.Int64
	evictions, trainings     atomic.Int64
	trainNanos, warmRestores atomic.Int64
	trainFailures            atomic.Int64
	trainPanics              atomic.Int64
	breakerOpens             atomic.Int64
	breakerProbes            atomic.Int64
	breakerRejects           atomic.Int64
	saturations              atomic.Int64
	budgetMisses             atomic.Int64
	warmStarts               atomic.Int64 // trainings seeded from a neighbour policy
	earlyStops               atomic.Int64 // trainings that stopped on a return plateau
	specTrainings            atomic.Int64 // speculative pre-trainings completed
	specInstalls             atomic.Int64 // speculative policies installed
	specHits                 atomic.Int64 // requests served by a speculative policy
	replicaInstalls          atomic.Int64 // peer-pushed policies installed
	replicaStale             atomic.Int64 // peer pushes refused as stale (no-op)
	replicaHits              atomic.Int64 // requests served by a replica-held policy
}

// shardCount returns the largest power of two ≤ min(want, capacity), so a
// capacity-1 cache degenerates to a single shard with exact global LRU
// semantics.
func shardCount(want, capacity int) int {
	n := 1
	for n*2 <= want && n*2 <= capacity {
		n *= 2
	}
	return n
}

func newPolicyCache(cfg Config, train trainFunc) *policyCache {
	c := &policyCache{
		capacity:    cfg.CacheCapacity,
		ttl:         cfg.PolicyTTL,
		drift:       cfg.DriftThreshold,
		now:         cfg.Now,
		train:       train,
		trainBudget: cfg.TrainBudget,
		threshold:   cfg.BreakerThreshold,
		baseBackoff: cfg.BreakerBackoff,
		maxBackoff:  cfg.BreakerMaxBackoff,
		logf:        cfg.Logf,
		gate:        make(chan struct{}, cfg.TrainConcurrency),
		maxWait:     int64(cfg.TrainConcurrency + cfg.TrainQueue),
	}
	n := shardCount(cfg.CacheShards, cfg.CacheCapacity)
	c.mask = n - 1
	c.shards = make([]*cacheShard, n)
	base, rem := cfg.CacheCapacity/n, cfg.CacheCapacity%n
	for i := range c.shards {
		cap := base
		if i < rem {
			cap++
		}
		c.shards[i] = &cacheShard{
			c:        c,
			capacity: cap,
			entries:  make(map[int]*policyEntry),
			lru:      list.New(),
			breakers: make(map[int]*breaker),
			rng:      mathx.NewRand(cfg.Seed + 31 + int64(i)*101),
		}
	}
	return c
}

// shard maps a cluster key onto its lock domain.
func (c *policyCache) shard(key int) *cacheShard { return c.shards[key&c.mask] }

func (sh *cacheShard) newEntryLocked(key int) *policyEntry {
	e := &policyEntry{key: key, ready: make(chan struct{})}
	e.elem = sh.lru.PushFront(e)
	sh.entries[key] = e
	sh.evictLocked()
	return e
}

// evictLocked drops least-recently-used resolved entries beyond the shard's
// capacity. In-flight entries are skipped: their leader still needs to
// publish, and being freshly created they sit near the front anyway.
func (sh *cacheShard) evictLocked() {
	for len(sh.entries) > sh.capacity {
		victim := (*policyEntry)(nil)
		for el := sh.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*policyEntry); e.resolved {
				victim = e
				break
			}
		}
		if victim == nil {
			return // everything over capacity is in flight
		}
		sh.removeLocked(victim)
		sh.c.evictions.Add(1)
	}
}

func (sh *cacheShard) removeLocked(e *policyEntry) {
	if sh.entries[e.key] == e {
		delete(sh.entries, e.key)
	}
	if e.elem != nil {
		sh.lru.Remove(e.elem)
		e.elem = nil
	}
}

// get returns the resolved entry for a cluster, training it when cold,
// expired or drift-invalidated. The outcome string is one of the Cache*
// constants. Callers wait on the training (leader and joiners alike) bounded
// by ctx and the train budget; the training itself runs in a background
// goroutine and always completes, so a canceled or budget-expired waiter
// never wastes the training the rest of the queue shares. Errors are the
// degraded-path triggers: ErrCircuitOpen, ErrTrainSaturated, ErrTrainBudget,
// training failures, or the waiter's ctx error.
func (c *policyCache) get(ctx context.Context, key int) (*policyEntry, string, error) {
	sh := c.shard(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		if !e.resolved {
			// Training in flight: join it.
			sh.mu.Unlock()
			c.coalesced.Add(1)
			return c.wait(ctx, e, CacheCoalesced)
		}
		outcome := CacheHit
		switch {
		case e.err != nil:
			// A failed training left a tombstone; retrain below.
			sh.removeLocked(e)
		case c.expiredLocked(e):
			outcome = CacheExpired
			c.expired.Add(1)
			sh.removeLocked(e)
		case e.stale.Load():
			outcome = CacheDrift
			c.driftRetrains.Add(1)
			sh.removeLocked(e)
		default:
			sh.lru.MoveToFront(e.elem)
			promoted := false
			switch e.prov {
			case provCheckpoint:
				outcome = CacheWarm
			case provReplica:
				outcome = CacheReplica
				c.replicaHits.Add(1)
			case provSpeculative:
				outcome = CacheSpeculative
				c.specHits.Add(1)
				// First real-traffic hit promotes the entry: the policy is
				// demand-confirmed, so it earns the full TTL from now.
				if e.promotedAt.Load() == 0 {
					e.promotedAt.Store(c.now().UnixNano())
					promoted = true
				}
			}
			sh.mu.Unlock()
			c.hits.Add(1)
			if promoted && c.onReplicate != nil {
				// A promoted speculative policy is now demand-confirmed state
				// worth protecting; push it to the cluster's replica owner.
				c.onReplicate(key)
			}
			return e, outcome, nil
		}
		return sh.startTrainingLocked(ctx, key, outcome)
	}
	c.misses.Add(1)
	return sh.startTrainingLocked(ctx, key, CacheMiss)
}

// expiredLocked applies the provenance-aware TTL: demand and checkpoint
// entries age from trainedAt over the full TTL; an unpromoted speculative
// entry gets only specFraction of it, and a promoted one ages from its
// promotion time — "refreshed by real traffic" resets the clock.
func (c *policyCache) expiredLocked(e *policyEntry) bool {
	if c.ttl <= 0 {
		return false
	}
	if e.prov == provReplica {
		// Replica-held copies never age out on demand TTL: their primary
		// retrains and re-pushes newer versions, and evicting them here would
		// turn a primary death into a cold failover. Drift invalidation and
		// versioned re-push are their refresh paths.
		return false
	}
	ttl, ref := c.ttl, e.trainedAt
	if e.prov == provSpeculative {
		if p := e.promotedAt.Load(); p != 0 {
			ref = time.Unix(0, p)
		} else {
			ttl = time.Duration(float64(ttl) * specFraction)
		}
	}
	return c.now().Sub(ref) > ttl
}

// startTrainingLocked launches the background training for a cold/expired/
// drifted cluster — unless the cluster's breaker or the global gate refuses
// — then waits for the result like a joiner. Called with sh.mu held; unlocks.
func (sh *cacheShard) startTrainingLocked(ctx context.Context, key int, outcome string) (*policyEntry, string, error) {
	c := sh.c
	if err := sh.admitLocked(key); err != nil {
		sh.mu.Unlock()
		return nil, outcome, err
	}
	e := sh.newEntryLocked(key)
	sh.mu.Unlock()
	c.pending.Add(1)
	go func() {
		c.gate <- struct{}{}
		trained := sh.runTraining(e)
		<-c.gate
		c.pending.Add(-1)
		// Last, with the slot and the pending count given back: the
		// pre-trainer gives up for good if it finds either still held.
		if trained && c.onTrained != nil {
			c.onTrained(e.key)
		}
	}()
	return c.wait(ctx, e, outcome)
}

// admitLocked decides whether a new training for the cluster may start:
// the breaker must be closed (or due a half-open probe) and the training
// gate must have room.
func (sh *cacheShard) admitLocked(key int) error {
	c := sh.c
	b := sh.breakers[key]
	if b != nil && c.threshold > 0 {
		switch b.state {
		case BreakerOpen:
			if c.now().Before(b.openUntil) {
				c.breakerRejects.Add(1)
				return ErrCircuitOpen
			}
		case BreakerHalfOpen:
			if b.probing {
				c.breakerRejects.Add(1)
				return ErrCircuitOpen
			}
		}
	}
	// Gate saturation is checked before committing the breaker to a probe,
	// so a rejected probe can retry on the next request.
	if c.pending.Load() >= c.maxWait {
		c.saturations.Add(1)
		return ErrTrainSaturated
	}
	if b != nil && c.threshold > 0 && b.state != BreakerClosed {
		// Open-with-elapsed-backoff or idle half-open: this training is the
		// single half-open trial.
		b.state = BreakerHalfOpen
		b.probing = true
		c.breakerProbes.Add(1)
	}
	return nil
}

// runTraining executes one training (panic-safe) and publishes the result to
// every waiter, updating the cluster's breaker. It reports whether the
// training succeeded.
func (sh *cacheShard) runTraining(e *policyEntry) bool {
	c := sh.c
	start := c.now()
	crl, imp, err := c.safeTrain(e.key)
	e.crl, e.imp, e.err = crl, imp, err
	e.trainedAt = c.now()
	e.trainDur = e.trainedAt.Sub(start)
	c.trainings.Add(1)
	c.trainNanos.Add(int64(e.trainDur))
	sh.mu.Lock()
	e.resolved = true
	if err != nil {
		// Leave no tombstone: the next admitted request retries.
		sh.removeLocked(e)
		sh.recordFailureLocked(e.key)
	} else {
		sh.recordSuccessLocked(e.key)
	}
	sh.mu.Unlock()
	// The push is enqueued before the waiters wake, so whatever a waiter
	// observes after its answer already includes it.
	if err == nil && c.onReplicate != nil {
		c.onReplicate(e.key) // non-blocking enqueue by contract
	}
	close(e.ready)
	return err == nil
}

// safeTrain invokes the train function, converting a panic into an error so
// a buggy or chaos-injected training never kills the process.
func (c *policyCache) safeTrain(cluster int) (crl *core.CRL, imp []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			c.trainPanics.Add(1)
			c.logf("serve: training cluster %d panicked: %v\n%s", cluster, r, debug.Stack())
			crl, imp = nil, nil
			err = fmt.Errorf("serve: train cluster %d panic: %v", cluster, r)
		}
	}()
	return c.train(cluster)
}

// recordSuccessLocked closes the cluster's breaker after a successful
// training.
func (sh *cacheShard) recordSuccessLocked(key int) {
	b := sh.breakers[key]
	if b == nil {
		return
	}
	if b.state != BreakerClosed {
		sh.c.logf("serve: cluster %d breaker closed after successful training", key)
	}
	delete(sh.breakers, key)
}

// recordFailureLocked counts a training failure and opens (or reopens) the
// breaker when the consecutive-failure threshold is reached. The open window
// grows exponentially with up to 20% jitter, capped at maxBackoff.
func (sh *cacheShard) recordFailureLocked(key int) {
	c := sh.c
	c.trainFailures.Add(1)
	if c.threshold <= 0 {
		return
	}
	b := sh.breakers[key]
	if b == nil {
		b = &breaker{state: BreakerClosed, window: c.baseBackoff}
		sh.breakers[key] = b
	}
	b.failures++
	wasProbe := b.probing
	b.probing = false
	if !wasProbe && b.failures < c.threshold {
		return
	}
	// Threshold crossed, or a half-open probe failed: (re)open.
	jittered := time.Duration(float64(b.window) * (1 + 0.2*sh.rng.Float64()))
	b.state = BreakerOpen
	b.openUntil = c.now().Add(jittered)
	if b.window *= 2; b.window > c.maxBackoff {
		b.window = c.maxBackoff
	}
	c.breakerOpens.Add(1)
	c.logf("serve: cluster %d breaker open for %v (%d consecutive failures)", key, jittered, b.failures)
}

// breakerState reports a cluster's breaker state (tests and stats).
func (c *policyCache) breakerState(key int) (state string, failures int) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := sh.breakers[key]
	if b == nil {
		return BreakerClosed, 0
	}
	return b.state, b.failures
}

// entryCount sums resident entries across shards (tests and stats).
func (c *policyCache) entryCount() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// entry returns the resident entry for a cluster, or nil (tests).
func (c *policyCache) entry(key int) *policyEntry {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.entries[key]
}

// wait blocks until the entry resolves, the caller's context ends, or the
// train budget runs out. The budget timer runs on the wall clock.
func (c *policyCache) wait(ctx context.Context, e *policyEntry, outcome string) (*policyEntry, string, error) {
	var budget <-chan time.Time
	if c.trainBudget > 0 {
		t := time.NewTimer(c.trainBudget)
		defer t.Stop()
		budget = t.C
	}
	select {
	case <-e.ready:
	case <-ctx.Done():
		return nil, outcome, ctx.Err()
	case <-budget:
		c.budgetMisses.Add(1)
		return nil, outcome, ErrTrainBudget
	}
	if e.err != nil {
		return nil, outcome, fmt.Errorf("serve: train cluster %d: %w", e.key, e.err)
	}
	return e, outcome, nil
}

// install publishes a checkpoint-restored policy without training. It
// overwrites any resident entry for the cluster. prov distinguishes plain
// restored entries (provCheckpoint) from restored speculative ones that were
// never demand-confirmed (provSpeculative keeps the discounted TTL/drift).
func (c *policyCache) install(key int, crl *core.CRL, imp []float64, trainedAt time.Time, prov int) {
	e := resolvedEntry(key, crl, imp, trainedAt, prov)
	sh := c.shard(key)
	sh.mu.Lock()
	if old, ok := sh.entries[key]; ok && old.resolved {
		sh.removeLocked(old)
	}
	e.elem = sh.lru.PushFront(e)
	sh.entries[key] = e
	sh.evictLocked()
	sh.mu.Unlock()
	c.warmRestores.Add(1)
}

// installVersioned publishes a peer-supplied policy (replication push or
// anti-entropy pull) if and only if it is strictly newer than what is
// resident — the idempotence rule that makes replication pushes and repeated
// anti-entropy pulls safe to replay in any order. An in-flight local
// training always wins (its result is at least as fresh and the map slot is
// owned by its leader), as does a resident healthy entry with an equal or
// newer trainedAt. Returns whether the policy was installed; refusals count
// as stale pushes.
func (c *policyCache) installVersioned(key int, crl *core.CRL, imp []float64, trainedAt time.Time, prov int) bool {
	e := resolvedEntry(key, crl, imp, trainedAt, prov)
	sh := c.shard(key)
	sh.mu.Lock()
	if old, ok := sh.entries[key]; ok {
		if !old.resolved || (old.err == nil && !trainedAt.After(old.trainedAt)) {
			sh.mu.Unlock()
			c.replicaStale.Add(1)
			return false
		}
		sh.removeLocked(old)
	}
	e.elem = sh.lru.PushFront(e)
	sh.entries[key] = e
	sh.evictLocked()
	sh.mu.Unlock()
	if prov == provReplica {
		c.replicaInstalls.Add(1)
	} else {
		c.warmRestores.Add(1)
	}
	return true
}

// installSpeculative publishes a speculatively pre-trained policy. Unlike
// install it NEVER displaces a resident entry — if a demand training raced
// past the pre-trainer (resolved or in flight), the speculative result is
// dropped. The entry joins at the LRU back so it is also the shard's first
// eviction candidate; a full shard simply refuses it. Reports whether the
// policy was installed.
func (c *policyCache) installSpeculative(key int, crl *core.CRL, imp []float64) bool {
	e := resolvedEntry(key, crl, imp, c.now(), provSpeculative)
	sh := c.shard(key)
	sh.mu.Lock()
	if _, ok := sh.entries[key]; ok {
		sh.mu.Unlock()
		return false
	}
	if len(sh.entries) >= sh.capacity {
		sh.mu.Unlock()
		return false // never evict demand entries for a speculation
	}
	e.elem = sh.lru.PushBack(e)
	sh.entries[key] = e
	sh.mu.Unlock()
	c.specInstalls.Add(1)
	return true
}

// noteImportance feeds an observed importance vector for a cluster into
// drift detection, returning true when it invalidated the resident policy.
// The distance is relative L2: ‖obs − trained‖ / (‖trained‖ + ε). Unpromoted
// speculative policies tolerate only specFraction of the threshold: their
// train-time importance was a neighbour's guess, so weaker evidence of
// mismatch should already retrain them.
func (c *policyCache) noteImportance(key int, observed []float64) bool {
	if c.drift < 0 {
		return false
	}
	sh := c.shard(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	resolved := ok && e.resolved
	sh.mu.Unlock()
	if !resolved || e.err != nil || e.stale.Load() {
		return false
	}
	if len(e.imp) == 0 || len(observed) != len(e.imp) {
		return false
	}
	threshold := c.drift
	if e.prov == provSpeculative && e.promotedAt.Load() == 0 {
		threshold *= specFraction
	}
	var dd, base float64
	for i, v := range e.imp {
		d := observed[i] - v
		dd += d * d
		base += v * v
	}
	if math.Sqrt(dd)/(math.Sqrt(base)+1e-9) > threshold {
		return !e.stale.Swap(true)
	}
	return false
}

// snapshot returns the resolved, healthy entries for checkpointing, most
// recently used first within each shard.
func (c *policyCache) snapshot() []*policyEntry {
	var out []*policyEntry
	for _, sh := range c.shards {
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			if e := el.Value.(*policyEntry); e.resolved && e.err == nil {
				out = append(out, e)
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// CacheStats is the cache's counter snapshot.
type CacheStats struct {
	Size               int   `json:"size"`
	Capacity           int   `json:"capacity"`
	Shards             int   `json:"shards"`
	Hits               int64 `json:"hits"`
	Misses             int64 `json:"misses"`
	Coalesced          int64 `json:"coalesced"`
	Expired            int64 `json:"expired"`
	DriftInvalidations int64 `json:"drift_invalidations"`
	Evictions          int64 `json:"evictions"`
	Trainings          int64 `json:"trainings"`
	TrainNanosTotal    int64 `json:"train_ns_total"`
	WarmRestores       int64 `json:"warm_restores"`
	TrainFailures      int64 `json:"train_failures"`
	TrainPanics        int64 `json:"train_panics"`
	TrainPending       int64 `json:"train_pending"`
	BreakersOpen       int   `json:"breakers_open"`
	BreakerOpens       int64 `json:"breaker_opens"`
	BreakerProbes      int64 `json:"breaker_probes"`
	BreakerRejects     int64 `json:"breaker_rejects"`
	Saturations        int64 `json:"train_saturations"`
	BudgetMisses       int64 `json:"train_budget_misses"`
	// Cold-start transfer counters: WarmStarts counts trainings seeded from
	// the nearest already-trained neighbour, EarlyStops trainings that
	// converged before their episode budget, SpeculativeTrainings/Installs
	// the background pre-trainer's completed runs and installed policies,
	// and SpeculativeHits requests answered by a pre-trained policy.
	WarmStarts           int64 `json:"warm_starts"`
	EarlyStops           int64 `json:"early_stops"`
	SpeculativeTrainings int64 `json:"speculative_trainings"`
	SpeculativeInstalls  int64 `json:"speculative_installs"`
	SpeculativeHits      int64 `json:"speculative_hits"`
	// Replica-group counters: ReplicaInstalls counts peer-pushed policies
	// installed here, ReplicaStale pushes refused as not-newer (the
	// idempotence no-op), and ReplicaHits requests answered by a replica-held
	// policy — the warm-failover signal.
	ReplicaInstalls int64 `json:"replica_installs"`
	ReplicaStale    int64 `json:"replica_stale"`
	ReplicaHits     int64 `json:"replica_hits"`
}

func (c *policyCache) stats() CacheStats {
	size, open := 0, 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		size += len(sh.entries)
		for _, b := range sh.breakers {
			if b.state == BreakerOpen || b.state == BreakerHalfOpen {
				open++
			}
		}
		sh.mu.Unlock()
	}
	return CacheStats{
		Size:                 size,
		Capacity:             c.capacity,
		Shards:               len(c.shards),
		Hits:                 c.hits.Load(),
		Misses:               c.misses.Load(),
		Coalesced:            c.coalesced.Load(),
		Expired:              c.expired.Load(),
		DriftInvalidations:   c.driftRetrains.Load(),
		Evictions:            c.evictions.Load(),
		Trainings:            c.trainings.Load(),
		TrainNanosTotal:      c.trainNanos.Load(),
		WarmRestores:         c.warmRestores.Load(),
		TrainFailures:        c.trainFailures.Load(),
		TrainPanics:          c.trainPanics.Load(),
		TrainPending:         c.pending.Load(),
		BreakersOpen:         open,
		BreakerOpens:         c.breakerOpens.Load(),
		BreakerProbes:        c.breakerProbes.Load(),
		BreakerRejects:       c.breakerRejects.Load(),
		Saturations:          c.saturations.Load(),
		BudgetMisses:         c.budgetMisses.Load(),
		WarmStarts:           c.warmStarts.Load(),
		EarlyStops:           c.earlyStops.Load(),
		SpeculativeTrainings: c.specTrainings.Load(),
		SpeculativeInstalls:  c.specInstalls.Load(),
		SpeculativeHits:      c.specHits.Load(),
		ReplicaInstalls:      c.replicaInstalls.Load(),
		ReplicaStale:         c.replicaStale.Load(),
		ReplicaHits:          c.replicaHits.Load(),
	}
}
