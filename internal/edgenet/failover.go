package edgenet

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
)

// ErrAllWorkersDown is returned when no worker remains to run the plan.
var ErrAllWorkersDown = fmt.Errorf("edgenet: all workers down")

// ftWorker is one session's membership of one run's dispatch pool. Its
// fields are owned by the event loop.
type ftWorker struct {
	slot int // dispatch-pool slot (key in Report.Workers)
	id   int // announced worker ID
	s    *session

	secPerBit float64
	timeScale float64
	beatEvery time.Duration // announced heartbeat cadence; 0 = no liveness tracking

	alive    bool
	busy     int       // task in flight, -1 when idle
	queue    []int     // planned backlog, priority-ordered
	lastBeat time.Time // last sign of life, moved later by a late scan's gap
	misses   int       // consecutive heartbeat windows missed
	corrupt  int       // corrupt frames seen on this connection
	cancelBy time.Time // set once the run's MsgCancel is sent: the echo's deadline
	echoed   bool      // the echo arrived: the session may serve the next run
}

type ftEventKind int

const (
	evDone ftEventKind = iota
	evBeat
	evCorrupt
	evGone
	evEcho // the worker's MsgCancel echo
)

type ftEvent struct {
	w    *ftWorker
	kind ftEventKind
	env  *Envelope // evDone only
	// at is when the session's reader read the frame: a sign of life dates
	// from its arrival, not from when the event loop got to it.
	at time.Time
}

// ftTask is the event loop's view of one planned task.
type ftTask struct {
	planned  bool
	done     bool
	owners   int       // dispatched copies currently in flight
	deadline time.Time // hedge eligibility instant for the newest copy
}

// ftRun is the state of one Run; everything in it is owned by the event
// loop goroutine.
type ftRun struct {
	c       *Controller
	p       *core.Problem
	prio    func(int) float64
	report  *Report
	start   time.Time // dispatch start, once the initial pool is greeted
	events  chan ftEvent
	stop    chan struct{} // closed once the run is over: no more events
	ticker  *time.Ticker  // the failure detector's scan
	scanned time.Time     // the last scan, or the dispatch start
	silence string        // " (why the last silent worker died)", or ""
	workers []*ftWorker
	tasks   []ftTask
	backlog []int // unowned tasks awaiting a worker, priority-ordered
	live    int
	done    int
	total   int
	target  float64
	ready   bool // the coverage target was met: the run is over
}

// Run executes the allocation on the workers (addrs[i] serves processor i
// of the problem), one task in flight per worker, streaming each worker's
// tasks in priority order. Each worker runs the tasks the plan placed on
// it; another worker takes a task only when it is orphaned. Run returns at
// the first completion that covers the coverage target, or once every
// assigned task has completed, whichever comes first; a zero target (a
// plan without importance) is met at that last completion. A caller that
// needs every task run passes coverage 1.0.
//
// Sessions outlive the run: Run takes each address's idle session from a
// process-wide fleet, dialing only where there is none. Whichever way it
// returns, Run first ends the run with the cancel barrier (barrier), so a
// worker's tasks still executing stop before Run returns.
//
// Workers fail the way nodes of a WiFi testbed do — they stall, crash or
// corrupt bytes rather than cleanly disconnecting — and none of that fails
// the run:
//
//   - a worker that cannot be dialed, or sends no hello within DialTimeout,
//     is dead from the start: its tasks are orphaned. Its greeting goes on
//     in the background and later Runs treat the address as dead without
//     waiting, until the hello arrives and the session joins the fleet.
//   - liveness: workers announce a heartbeat cadence in their hello; a
//     window is that cadence, but never shorter than Tick, the detector's
//     own resolution. A worker missing LivenessMisses consecutive windows
//     is declared dead
//     and its tasks are orphaned — a hung-but-connected node no longer
//     blocks the run until the caller's context expires.
//   - hedging: every dispatched task carries a completion deadline derived
//     from InputBits × SecPerBit × TimeScale; a task still running past it
//     is speculatively re-sent to an idle worker, first completion wins,
//     and duplicate completions are deduplicated.
//   - integrity: a frame failing its CRC (or message validation) is
//     counted and the in-flight assignment re-sent; a connection exceeding
//     MaxCorruptFrames is quarantined like a dead worker.
//
// A worker that died in one run is not taken back mid-run: once it
// recovers, the next Run's dial greets it again.
//
// Orphaned tasks go to idle live workers in priority order. Besides a
// malformed plan, Run fails only with ErrAllWorkersDown, when no worker is
// left with work outstanding, or when ctx ends.
func (c *Controller) Run(ctx context.Context, addrs []string, p *core.Problem, res *alloc.Result, coverageTarget float64) (*Report, error) {
	queues, assigned, target, err := prepare(addrs, p, res, coverageTarget)
	if err != nil {
		return nil, err
	}

	r := &ftRun{
		c:      c,
		p:      p,
		prio:   planPriority(res),
		report: &Report{Workers: make(map[int]int, len(addrs))},
		events: make(chan ftEvent, 128),
		stop:   make(chan struct{}),
		ticker: time.NewTicker(c.tick()),
		tasks:  make([]ftTask, len(p.Tasks)),
		total:  assigned,
		target: target,
	}
	for j, proc := range res.Allocation {
		if proc != core.Unassigned {
			r.tasks[j].planned = true
		}
	}
	defer r.end()

	// Greet the initial pool. A worker that cannot be dialed or greeted
	// counts as failed at t=0: its queue lands in the backlog.
	for i, s := range c.greet(ctx, addrs) {
		if s == nil {
			r.backlogTasks(queues[i])
			continue
		}
		w := newFTWorker(s)
		w.slot = i
		w.queue = queues[i]
		r.admit(w)
	}
	// Completion instants count from here: the greeting is connection
	// set-up, not execution.
	r.start = time.Now()
	r.scanned = r.start
	if r.live == 0 && r.total > 0 {
		return nil, fmt.Errorf("%d tasks stranded: %w", r.total, ErrAllWorkersDown)
	}

	// Seed the pool, then run the event loop: completions, heartbeats and
	// corruption arrive as events; the ticker drives the failure detector
	// (hedge + liveness scans).
	for _, w := range r.workers {
		r.dispatch(w)
	}
	for !r.over() {
		select {
		case ev := <-r.events:
			r.handle(ev)
		case <-r.ticker.C:
			r.scan(time.Now())
		case <-ctx.Done():
			return nil, fmt.Errorf("edgenet run: %w", ctx.Err())
		}
		if !r.over() && r.live == 0 {
			return nil, fmt.Errorf("%d tasks stranded%s: %w", r.total-r.done, r.silence, ErrAllWorkersDown)
		}
	}
	if r.target <= 0 {
		r.report.DecisionReadyAt = time.Since(r.start)
	}
	return r.report, nil
}

// end closes the run: the cancel barrier, and then each echoed session
// goes back to the fleet and every other one is closed.
func (r *ftRun) end() {
	r.barrier()
	r.ticker.Stop()
	close(r.stop)
	for _, w := range r.workers {
		if w.echoed {
			pool(w.s)
		} else {
			w.s.close()
		}
	}
}

// barrier sends MsgCancel on every live outbound session and waits for the
// echoes, dropping the frames before them uncounted. A session that does
// not echo within its liveness window is closed: a worker that cannot
// confirm it stopped must not carry completions into the next run.
func (r *ftRun) barrier() {
	now := time.Now()
	for _, w := range r.workers {
		if w.alive && w.s.send(&Envelope{Type: MsgCancel}) {
			w.cancelBy = now.Add(time.Duration(r.c.livenessMisses()) * r.beatWindow(w))
		}
	}
	for r.awaitingEcho() {
		select {
		case ev := <-r.events:
			if ev.kind == evEcho {
				ev.w.echoed = !ev.w.cancelBy.IsZero()
			}
		case now := <-r.ticker.C:
			for _, w := range r.workers {
				if !w.cancelBy.IsZero() && !w.echoed && now.After(w.cancelBy) {
					w.s.close()
				}
			}
		}
	}
}

func (r *ftRun) awaitingEcho() bool {
	for _, w := range r.workers {
		if !w.cancelBy.IsZero() && !w.echoed && !w.s.closed() {
			return true
		}
	}
	return false
}

// over is Run's termination rule: the coverage target was met, or every
// assigned task has completed.
func (r *ftRun) over() bool { return r.ready || r.done >= r.total }

func newFTWorker(s *session) *ftWorker {
	return &ftWorker{
		id:        s.hello.WorkerID,
		s:         s,
		secPerBit: s.hello.SecPerBit,
		timeScale: s.hello.TimeScale,
		beatEvery: time.Duration(s.hello.HeartbeatSec * float64(time.Second)),
		busy:      -1,
	}
}

// admit installs a worker into the pool and attaches its session to the
// run. A session whose reader ended before it was attached is dead.
func (r *ftRun) admit(w *ftWorker) {
	w.alive = true
	w.lastBeat = time.Now()
	r.workers = append(r.workers, w)
	r.live++
	r.report.Workers[w.slot] = w.id
	w.s.mu.Lock()
	w.s.run, w.s.w = r, w
	w.s.mu.Unlock()
	if w.s.closed() {
		r.kill(w)
	}
}

func (r *ftRun) send(ev ftEvent) bool {
	select {
	case r.events <- ev:
		return true
	case <-r.stop:
		return false
	}
}

func (r *ftRun) handle(ev ftEvent) {
	w := ev.w
	switch ev.kind {
	case evBeat:
		if w.alive {
			r.noteAlive(w, ev.at)
		}
	case evDone:
		if w.alive {
			r.noteAlive(w, ev.at)
			r.handleDone(w, ev.env)
		}
	case evCorrupt, evEcho: // an echo outside the barrier was never asked for
		if w.alive {
			r.noteAlive(w, ev.at) // a corrupt frame is still a sign of life
			r.handleCorrupt(w)
		}
	case evGone:
		r.kill(w)
	}
}

func (r *ftRun) noteAlive(w *ftWorker, at time.Time) {
	w.lastBeat = at
	w.misses = 0
}

func (r *ftRun) handleDone(w *ftWorker, env *Envelope) {
	j := env.TaskID
	if j < 0 || j >= len(r.tasks) || !r.tasks[j].planned {
		r.handleCorrupt(w) // checksummed-valid but nonsensical: distrust the peer
		return
	}
	if w.busy == j {
		w.busy = -1
	}
	st := &r.tasks[j]
	if st.owners > 0 {
		st.owners--
	}
	if st.done {
		r.report.DuplicateDone++
	} else {
		st.done = true
		r.done++
		r.ready = r.report.record(Completion{
			Task:       j,
			WorkerID:   w.id,
			Importance: r.p.Tasks[j].Importance,
			At:         time.Since(r.start),
		}, r.target)
	}
	if !r.ready {
		r.dispatch(w)
	}
}

func (r *ftRun) handleCorrupt(w *ftWorker) {
	r.report.CorruptFrames++
	w.corrupt++
	if w.corrupt >= r.c.maxCorruptFrames() {
		r.kill(w)
		return
	}
	if w.busy >= 0 && !r.tasks[w.busy].done {
		// The lost frame may have been the completion of the in-flight
		// task; re-sending the assignment makes the worker re-execute and
		// re-report it. If the lost frame was something else, dedup
		// swallows the extra completion.
		r.report.Retries++
		r.resend(w, w.busy)
	}
}

// kill removes a worker from the pool and re-dispatches its unfinished
// work. Idempotent: late evGone events for an already-dead worker no-op.
func (r *ftRun) kill(w *ftWorker) {
	if !w.alive {
		return
	}
	w.alive = false
	r.live--
	r.report.DeadWorkers++
	w.s.close()
	if w.busy >= 0 {
		st := &r.tasks[w.busy]
		if st.owners > 0 {
			st.owners--
		}
		if !st.done && st.owners == 0 {
			r.pushBacklog(w.busy)
		}
		w.busy = -1
	}
	r.backlogTasks(w.queue)
	w.queue = nil
	for _, v := range r.workers {
		if v.alive && v.busy < 0 {
			r.dispatch(v)
		}
	}
}

// scan is the periodic failure detector: hedge stragglers, then declare
// heartbeat-silent workers dead. Hedging runs first so a task whose owner
// is about to be declared dead is speculatively duplicated rather than
// merely re-queued.
func (r *ftRun) scan(now time.Time) {
	for j := range r.tasks {
		st := &r.tasks[j]
		if st.done || st.owners == 0 || now.Before(st.deadline) {
			continue
		}
		w := r.idleWorker()
		if w == nil {
			break // no spare capacity this tick; retry next scan
		}
		r.report.Hedges++
		r.assign(w, j)
	}
	prev := r.scanned
	gap := now.Sub(prev)
	r.scanned = now
	for _, w := range r.workers {
		if !w.alive || w.beatEvery <= 0 {
			continue
		}
		if gap > 2*r.c.tick() {
			// More than one Tick late: the controller itself was not
			// listening since prev, so this scan counts none of it as
			// silence.
			if w.lastBeat.Before(prev) {
				w.lastBeat = w.lastBeat.Add(gap)
			} else {
				w.lastBeat = now
			}
		}
		if missed := int(now.Sub(w.lastBeat) / r.beatWindow(w)); missed > w.misses {
			r.report.HeartbeatMisses += missed - w.misses
			w.misses = missed
		}
		if w.misses >= r.c.livenessMisses() {
			r.silence = fmt.Sprintf(" (worker %d: silent %v at a scan %v after the one before)",
				w.id, now.Sub(w.lastBeat).Round(time.Microsecond), gap.Round(time.Microsecond))
			r.kill(w)
		}
	}
}

// beatWindow is one heartbeat window of w: its cadence, but a cadence finer
// than the scan is judged at the scan's resolution.
func (r *ftRun) beatWindow(w *ftWorker) time.Duration {
	return max(w.beatEvery, r.c.tick())
}

func (r *ftRun) idleWorker() *ftWorker {
	for _, w := range r.workers {
		if w.alive && w.busy < 0 {
			return w
		}
	}
	return nil
}

// dispatch hands an idle worker its next task: the higher-priority of its
// own planned queue and the orphan backlog. A worker never takes a task
// another live worker still holds in its queue: placement is the plan's.
func (r *ftRun) dispatch(w *ftWorker) {
	if !w.alive || w.busy >= 0 {
		return
	}
	j := r.nextTask(w)
	if j < 0 {
		return
	}
	r.assign(w, j)
}

func (r *ftRun) nextTask(w *ftWorker) int {
	w.queue = trimDone(w.queue, r.tasks)
	r.backlog = trimDone(r.backlog, r.tasks)
	switch {
	case len(w.queue) > 0 && (len(r.backlog) == 0 || r.prio(w.queue[0]) >= r.prio(r.backlog[0])):
		j := w.queue[0]
		w.queue = w.queue[1:]
		return j
	case len(r.backlog) > 0:
		j := r.backlog[0]
		r.backlog = r.backlog[1:]
		return j
	}
	return -1
}

func trimDone(q []int, tasks []ftTask) []int {
	for len(q) > 0 && tasks[q[0]].done {
		q = q[1:]
	}
	return q
}

// assign marks w busy on task j (as one more in-flight copy) and queues
// the assignment frame.
func (r *ftRun) assign(w *ftWorker, j int) {
	w.busy = j
	r.tasks[j].owners++
	r.resend(w, j)
}

// resend queues the assignment of w's in-flight task j with a fresh
// deadline; after a corrupt frame it re-sends it without touching the
// owner count. The session's queue never fills while its writer lives, so
// a full one means the worker is dead.
func (r *ftRun) resend(w *ftWorker, j int) {
	t := r.p.Tasks[j]
	r.tasks[j].deadline = time.Now().Add(r.deadlineFor(w, t))
	env := &Envelope{Type: MsgAssign, TaskID: j, InputBits: t.InputBits, Importance: t.Importance}
	if !w.s.send(env) {
		r.kill(w)
	}
}

// deadlineFor derives the task's completion deadline from the expected
// execution time the worker announced in its hello. It saturates at the
// largest Duration instead of wrapping into the past.
func (r *ftRun) deadlineFor(w *ftWorker, t core.TaskSpec) time.Duration {
	expected := t.InputBits * w.secPerBit * w.timeScale
	floor, d := r.c.hedgeMinDeadline(), seconds(hedgeFactor*expected)
	if d > math.MaxInt64-floor {
		return math.MaxInt64
	}
	return floor + d
}

func (r *ftRun) pushBacklog(j int) {
	r.backlog = append(r.backlog, j)
	sortByPriority(r.backlog, r.prio)
}

func (r *ftRun) backlogTasks(q []int) {
	for _, j := range q {
		if !r.tasks[j].done {
			r.pushBacklog(j)
		}
	}
}
