package edgenet

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
)

// Controller errors.
var (
	// ErrNoWorkers is returned when Run is given no worker addresses.
	ErrNoWorkers = errors.New("edgenet: no workers")
	// ErrPlanMismatch is returned when the allocation references workers
	// that were not dialed.
	ErrPlanMismatch = errors.New("edgenet: allocation references unknown worker")
)

// Completion is one task-finished event observed by the controller.
type Completion struct {
	Task       int
	WorkerID   int
	Importance float64
	// At is the wall-clock completion instant relative to the start of
	// dispatch, once Run has greeted the workers.
	At time.Duration
}

// Report is the outcome of executing one allocation on live workers.
type Report struct {
	// DecisionReadyAt is the instant the cumulative completed importance
	// reached the coverage target (the live PT analog); zero if the target
	// was never reached. The run ends at this instant.
	DecisionReadyAt time.Duration
	// Covered is the importance completed by DecisionReadyAt (or by the end
	// of the run when the target was unreachable). Each task counts once no
	// matter how many workers completed it.
	Covered float64
	// Completions lists every first task completion in arrival order, up to
	// and including the one at DecisionReadyAt: tasks still executing then
	// are abandoned, not waited for. Duplicate completions (hedges, retried
	// frames) are deduplicated and counted in DuplicateDone instead.
	Completions []Completion
	// Workers maps dispatch-pool slot (the index of the worker's address)
	// to the announced worker ID.
	Workers map[int]int

	// Robustness counters.

	// HeartbeatMisses is the total number of heartbeat windows that passed
	// without a beat, summed over all heartbeat-announcing workers.
	HeartbeatMisses int
	// DeadWorkers is the number of workers declared dead mid-run — by
	// missed heartbeats, a broken connection, or corrupt-frame quarantine.
	DeadWorkers int
	// Hedges is the number of speculative duplicate dispatches of
	// straggling tasks (first completion wins).
	Hedges int
	// Retries is the number of assignments re-sent to a worker after one
	// of its frames arrived corrupt.
	Retries int
	// CorruptFrames is the number of frames rejected by checksum or
	// message validation across all workers.
	CorruptFrames int
	// DuplicateDone is the number of completions discarded because the
	// task had already been completed (hedging or retry races).
	DuplicateDone int
}

// Controller executes allocation plans on live workers over TCP.
//
// The zero value works; the knobs below tune Run's failure detector.
type Controller struct {
	// DialTimeout bounds how long Run waits to dial and greet a worker
	// that has no idle session in the fleet. A greeting Run gave up on
	// goes on in the background for at most four DialTimeouts in all.
	DialTimeout time.Duration
	// LivenessMisses is K: a worker that announced a heartbeat cadence and
	// then misses K consecutive windows — each its cadence, but at least
	// Tick — is declared dead and its work re-dispatched (default 3).
	LivenessMisses int
	// HedgeMinDeadline is the floor of a task's completion deadline, to
	// which hedgeFactor (4) times the task's expected execution time is
	// added. A task still incomplete past its deadline is speculatively
	// re-sent to an idle healthy worker (default 1s).
	HedgeMinDeadline time.Duration
	// MaxCorruptFrames quarantines a worker after this many corrupt
	// frames on its connection: the link is flaky beyond salvage
	// (default 3).
	MaxCorruptFrames int
	// Tick is the failure-detector scan interval (default 10ms).
	Tick time.Duration
}

// hedgeFactor scales a task's expected execution time (InputBits ×
// SecPerBit × TimeScale from the worker's hello) in its completion
// deadline.
const hedgeFactor = 4

// NewController returns a controller with a 2-second dial timeout.
func NewController() *Controller { return &Controller{DialTimeout: 2 * time.Second} }

func (c *Controller) livenessMisses() int {
	if c.LivenessMisses > 0 {
		return c.LivenessMisses
	}
	return 3
}

func (c *Controller) hedgeMinDeadline() time.Duration {
	if c.HedgeMinDeadline > 0 {
		return c.HedgeMinDeadline
	}
	return time.Second
}

func (c *Controller) maxCorruptFrames() int {
	if c.MaxCorruptFrames > 0 {
		return c.MaxCorruptFrames
	}
	return 3
}

func (c *Controller) tick() time.Duration {
	if c.Tick > 0 {
		return c.Tick
	}
	return 10 * time.Millisecond
}

// planQueues validates the plan against the worker count and splits it into
// per-worker queues in priority order.
func planQueues(p *core.Problem, res *alloc.Result, workers int) (queues [][]int, assigned int, err error) {
	queues = make([][]int, workers)
	for j, proc := range res.Allocation {
		if proc == core.Unassigned {
			continue
		}
		if proc < 0 || proc >= workers {
			return nil, 0, fmt.Errorf("task %d on processor %d: %w", j, proc, ErrPlanMismatch)
		}
		queues[proc] = append(queues[proc], j)
		assigned++
	}
	prio := planPriority(res)
	for _, q := range queues {
		sortByPriority(q, prio)
	}
	return queues, assigned, nil
}

// sortByPriority orders tasks by descending priority, ties by task index.
func sortByPriority(q []int, prio func(int) float64) {
	sort.Slice(q, func(a, b int) bool {
		pa, pb := prio(q[a]), prio(q[b])
		if pa != pb {
			return pa > pb
		}
		return q[a] < q[b]
	})
}

func planPriority(res *alloc.Result) func(int) float64 {
	return func(j int) float64 {
		if res.Priority != nil && j < len(res.Priority) {
			return res.Priority[j]
		}
		return -float64(j)
	}
}

// prepare validates a run's inputs, normalizes the coverage target and
// splits the plan into per-worker queues. A target outside (0, 1], NaN
// included, means the paper's 0.8.
func prepare(addrs []string, p *core.Problem, res *alloc.Result, coverageTarget float64) (queues [][]int, assigned int, target float64, err error) {
	if len(addrs) == 0 {
		return nil, 0, 0, ErrNoWorkers
	}
	if err := p.Validate(); err != nil {
		return nil, 0, 0, fmt.Errorf("edgenet: %w", err)
	}
	if res == nil || len(res.Allocation) != len(p.Tasks) {
		return nil, 0, 0, fmt.Errorf("edgenet: allocation/task mismatch: %w", ErrPlanMismatch)
	}
	if !(coverageTarget > 0 && coverageTarget <= 1) {
		coverageTarget = 0.8
	}
	queues, assigned, err = planQueues(p, res, len(addrs))
	if err != nil {
		return nil, 0, 0, err
	}
	return queues, assigned, coverageTarget * p.TotalImportance(), nil
}

// readHello reads the worker's greeting, bounded by a read deadline so a
// connected-but-mute peer cannot stall admission.
func readHello(conn net.Conn, timeout time.Duration) (*Envelope, error) {
	if timeout > 0 {
		conn.SetReadDeadline(time.Now().Add(timeout)) //nolint:errcheck
		defer conn.SetReadDeadline(time.Time{})       //nolint:errcheck
	}
	hello, err := ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	if hello.Type != MsgHello {
		return nil, fmt.Errorf("sent %q first: %w", hello.Type, ErrBadMessage)
	}
	return hello, nil
}

// record adds a first completion to the report and reports whether it met
// the coverage target: Run returns at the first completion for which record
// is true, or once every assigned task has completed, whichever comes first.
func (r *Report) record(comp Completion, target float64) bool {
	r.Completions = append(r.Completions, comp)
	r.Covered += comp.Importance
	if target > 0 && r.Covered >= target {
		r.DecisionReadyAt = comp.At
		return true
	}
	return false
}
