package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// errBatchError marks a warm rollout that died because its micro-batch
// panicked. The requests sharing that batch degrade to the fallback path
// tagged DegradedBatch; requests in other batches (and later requests on the
// same cluster) are untouched.
var errBatchError = errors.New("serve: batch rollout panicked")

// batchWaiter is one warm CRL rollout waiting in a coalescer. The caller
// fills env (the request's defined environment) before handing the waiter
// in; the batch leader writes the allocation into out (reusing its backing
// array) and signals sig exactly once. Waiters are embedded in the pooled
// per-request workspace, so steady state allocates none of this.
type batchWaiter struct {
	env *core.Environment
	out core.Allocation
	sig chan batchSignal // buffered 1

	// soloEnvs/soloOut are the batch-1 fast path's preallocated
	// single-element batch views.
	soloEnvs [1]*core.Environment
	soloOut  [1]core.Allocation
}

type batchSignal struct {
	err error
}

// coalescer gathers concurrent warm rollouts for one cached policy into
// micro-batches over a single pooled replica. core.PredictBatchInto rolls the
// environments of a batch out one after another, each incrementally (the
// environment half of the DQN's first layer hoisted out of the episode, one
// weight column added per assignment, the network tail re-evaluated only after
// an assignment), so a batch costs what its rollouts cost alone; what batching
// buys is one replica checkout for N requests once the pool is saturated,
// instead of N more clones or N waits.
//
// Shape:
//
//   - Uncontended requests take the batch-1 fast path: no queue, no timer,
//     no extra latency — exactly the pre-coalescer behavior. The fast path
//     is taken while the queue is empty and fewer than poolCap rollout
//     batches are in flight (the replica pool still has headroom, so
//     batching would only add window latency).
//   - Once the pool is saturated, arrivals queue. The queue flushes when it
//     reaches maxBatch (the arriving request runs the batch inline — no
//     goroutine handoff) or when the window timer fires, whichever first.
//   - A queued request whose context ends before its batch flushes removes
//     itself and degrades; it never waits past its own deadline for
//     batch-mates. Once flushed into a running batch it is committed and
//     the (bounded, compute-only) batch delivers its answer.
//   - A panicking batch rollout poisons only its own batch: every waiter in
//     it gets errBatchError, the replica is dropped, and the entry keeps
//     serving.
//
// Correctness leans on core.PredictBatchInto answering every environment from
// that environment's inputs alone: batching never changes any request's
// allocation, so coalesced and serial execution are observably identical
// (pinned by the equivalence tests).
type coalescer struct {
	c       *policyCache
	entry   *policyEntry
	poolCap int64

	running atomic.Int64 // rollout batches in flight (solo included)
	qlen    atomic.Int64 // queued waiters (lock-free fast-path probe)

	mu      sync.Mutex
	queue   []*batchWaiter
	spare   []*batchWaiter // recycled queue backing array
	timerOn bool
	gen     uint64 // flush generation; stale window timers no-op

	// predict runs one batch on a replica; tests swap in failure modes.
	predict func(replica *core.CRL, envs []*core.Environment, out []core.Allocation) error
}

func newCoalescer(c *policyCache, e *policyEntry) *coalescer {
	return &coalescer{
		c:       c,
		entry:   e,
		poolCap: int64(c.replicas),
		predict: func(replica *core.CRL, envs []*core.Environment, out []core.Allocation) error {
			return replica.PredictBatchInto(envs, out)
		},
	}
}

// rollout resolves one waiter: solo on the uncontended fast path, otherwise
// through the micro-batch queue. On success w.out holds the allocation.
func (co *coalescer) rollout(ctx context.Context, w *batchWaiter) error {
	if co.c.maxBatch <= 1 || (co.qlen.Load() == 0 && co.running.Load() < co.poolCap) {
		co.c.soloReqs.Add(1)
		return co.runSolo(w)
	}
	co.mu.Lock()
	if co.queue == nil && co.spare != nil {
		co.queue, co.spare = co.spare[:0], nil
	}
	co.queue = append(co.queue, w)
	co.qlen.Store(int64(len(co.queue)))
	if len(co.queue) >= co.c.maxBatch {
		batch := co.takeLocked()
		co.mu.Unlock()
		// The arriving request is the leader: run the full batch inline.
		co.runBatch(batch)
		sig := <-w.sig
		return sig.err
	}
	if !co.timerOn {
		co.timerOn = true
		gen := co.gen
		co.c.batchAfter(co.c.batchWindow, func() { co.onTimer(gen) })
	}
	co.mu.Unlock()

	select {
	case sig := <-w.sig:
		return sig.err
	case <-ctx.Done():
		co.mu.Lock()
		for i, q := range co.queue {
			if q == w {
				copy(co.queue[i:], co.queue[i+1:])
				co.queue = co.queue[:len(co.queue)-1]
				co.qlen.Store(int64(len(co.queue)))
				co.mu.Unlock()
				return ctx.Err()
			}
		}
		co.mu.Unlock()
		// Already flushed into a running batch: the rollout is pure bounded
		// compute, so the answer arrives promptly; deliver it rather than
		// abandoning a waiter another goroutine will signal.
		sig := <-w.sig
		return sig.err
	}
}

// runSolo is the batch-1 fast path: acquire a pooled replica, roll the
// single episode, hand the replica back. No queue, no timer, no channel
// round-trip.
func (co *coalescer) runSolo(w *batchWaiter) error {
	co.running.Add(1)
	defer co.running.Add(-1)
	replica, err := co.entry.acquire()
	if err != nil {
		return fmt.Errorf("serve: replica: %w", err)
	}
	w.soloEnvs[0], w.soloOut[0] = w.env, w.out
	err = co.safePredict(replica, w.soloEnvs[:], w.soloOut[:])
	w.out = w.soloOut[0]
	if err != nil {
		// The replica may hold a half-mutated rollout scratch; drop it and
		// let the pool re-clone from the pristine entry model.
		return err
	}
	co.entry.release(replica)
	return nil
}

// takeLocked claims the pending queue for a flush. Called with mu held.
func (co *coalescer) takeLocked() []*batchWaiter {
	batch := co.queue
	co.queue = nil
	co.qlen.Store(0)
	co.gen++
	co.timerOn = false
	return batch
}

// onTimer is the window-expiry flush. Stale timers (their batch already
// flushed by maxBatch or drain) see a generation mismatch and do nothing.
func (co *coalescer) onTimer(gen uint64) {
	co.mu.Lock()
	if gen != co.gen || len(co.queue) == 0 {
		co.mu.Unlock()
		return
	}
	batch := co.takeLocked()
	co.mu.Unlock()
	co.runBatch(batch)
}

// flush force-flushes the pending queue (drain/SIGTERM).
func (co *coalescer) flush() {
	co.mu.Lock()
	if len(co.queue) == 0 {
		co.mu.Unlock()
		return
	}
	batch := co.takeLocked()
	co.mu.Unlock()
	co.runBatch(batch)
}

// runBatch rolls one flushed batch on a pooled replica and signals every
// waiter exactly once.
func (co *coalescer) runBatch(batch []*batchWaiter) {
	co.running.Add(1)
	defer co.running.Add(-1)
	co.c.batchRuns.Add(1)
	co.c.batchedReqs.Add(int64(len(batch)))

	envs := make([]*core.Environment, len(batch))
	outs := make([]core.Allocation, len(batch))
	for i, w := range batch {
		envs[i] = w.env
		outs[i] = w.out
	}
	var err error
	replica, err := co.entry.acquire()
	if err != nil {
		err = fmt.Errorf("serve: replica: %w", err)
	} else {
		err = co.safePredict(replica, envs, outs)
		if err == nil {
			co.entry.release(replica)
		}
	}
	for i, w := range batch {
		w.out = outs[i]
		w.sig <- batchSignal{err: err}
	}
	// Recycle the queue backing array once every waiter has been signaled.
	co.mu.Lock()
	if co.spare == nil {
		co.spare = batch[:0]
	}
	co.mu.Unlock()
}

// safePredict runs the batch rollout, converting a panic into errBatchError
// so one poisoned batch never kills the process or the cluster's policy.
func (co *coalescer) safePredict(replica *core.CRL, envs []*core.Environment, out []core.Allocation) (err error) {
	defer func() {
		if r := recover(); r != nil {
			co.c.batchPanics.Add(1)
			co.c.logf("serve: batch rollout (size %d) panicked: %v", len(envs), r)
			err = fmt.Errorf("%w: %v", errBatchError, r)
		}
	}()
	return co.predict(replica, envs, out)
}
