package edgenet_test

// Chaos suite for the fault-tolerant execution plane: every failure mode
// the paper's WiFi testbed exhibits — hung nodes, corrupted bytes, crashed
// processes — injected through the
// internal/netfault proxy, with the controller's report counters checked
// against the proxy's exact fault ledger.

import (
	"context"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/edgenet"
	"repro/internal/edgesim"
	"repro/internal/netfault"
)

// chaosWorker launches one in-process worker on a loopback listener.
func chaosWorker(t *testing.T, id int, beat time.Duration, timeScale float64) *edgenet.Worker {
	t.Helper()
	w := &edgenet.Worker{
		ID:             id,
		Type:           edgesim.RaspberryPiB,
		TimeScale:      timeScale,
		HeartbeatEvery: beat,
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Serve(l); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := w.Close(); err != nil {
			t.Errorf("worker %d close: %v", id, err)
		}
	})
	return w
}

// chaosPlan builds n tasks round-robined over m workers, task importance
// descending so priority ordering is observable.
func chaosPlan(n, m int) (*core.Problem, *alloc.Result) {
	p := &core.Problem{TimeLimit: 1000}
	for j := 0; j < n; j++ {
		p.Tasks = append(p.Tasks, core.TaskSpec{
			ID: j, Importance: 1 - float64(j)/float64(2*n), TimeCost: 1, InputBits: 1000,
		})
	}
	for i := 0; i < m; i++ {
		p.Processors = append(p.Processors, core.Processor{ID: i, Capacity: 1000, SpeedFactor: 1})
	}
	a := make(core.Allocation, n)
	prio := make([]float64, n)
	for j := range a {
		a[j] = j % m
		prio[j] = p.Tasks[j].Importance
	}
	return p, &alloc.Result{Allocation: a, Priority: prio}
}

// onlyDone returns a netfault decider applying action to the k-th MsgDone
// frame (0-based) and every later one when every is true.
func onlyDone(action netfault.Action, k int, every bool) netfault.Decider {
	dones := 0
	return func(i int, env *edgenet.Envelope) netfault.Action {
		if env == nil || env.Type != edgenet.MsgDone {
			return netfault.Pass
		}
		dones++
		if dones-1 == k || (every && dones-1 > k) {
			return action
		}
		return netfault.Pass
	}
}

// assertUniqueCompletions checks every planned task completed exactly once
// and coverage was counted once per task.
func assertUniqueCompletions(t *testing.T, report *edgenet.Report, p *core.Problem, want int) {
	t.Helper()
	if len(report.Completions) != want {
		t.Fatalf("completions = %d, want %d", len(report.Completions), want)
	}
	seen := make(map[int]bool, want)
	sum := 0.0
	for _, comp := range report.Completions {
		if seen[comp.Task] {
			t.Fatalf("task %d completed twice in the report", comp.Task)
		}
		seen[comp.Task] = true
		sum += p.Tasks[comp.Task].Importance
	}
	if math.Abs(sum-report.Covered) > 1e-9 {
		t.Fatalf("covered %v, but unique completions sum to %v", report.Covered, sum)
	}
}

// TestChaosHangCorruptCrash is the acceptance chaos run: worker 1 hangs
// mid-task (stream stalls, heartbeats stop), worker 2's first completion
// frame is corrupted in flight, worker 3 crashes after its first
// completion, worker 4 stays healthy. The run must reach the coverage target well
// before the context deadline, count every task exactly once, and report
// failure counters matching the proxies' fault ledgers exactly.
func TestChaosHangCorruptCrash(t *testing.T) {
	const beat = 20 * time.Millisecond
	hangW := chaosWorker(t, 1, beat, 0)
	corruptW := chaosWorker(t, 2, beat, 0)
	crashW := chaosWorker(t, 3, beat, 0)
	healthyW := chaosWorker(t, 4, beat, 0)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	hangP, err := netfault.New(hangW.Addr(), onlyDone(netfault.Hang, 0, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hangP.Close() })
	corruptP, err := netfault.New(corruptW.Addr(), onlyDone(netfault.Corrupt, 0, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { corruptP.Close() })

	crashP, err := netfault.New(crashW.Addr(), onlyDone(netfault.Drop, 0, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { crashP.Close() })

	ctrl := edgenet.NewController()
	ctrl.Tick = 5 * time.Millisecond
	ctrl.LivenessMisses = 5                 // hang declared dead after ~100ms of silence
	ctrl.HedgeMinDeadline = 2 * time.Second // hangs recover via liveness here, not hedging

	p, res := chaosPlan(12, 4)
	addrs := []string{hangP.Addr(), corruptP.Addr(), crashP.Addr(), healthyW.Addr()}
	report, err := ctrl.Run(ctx, addrs, p, res, 1.0)
	if err != nil {
		t.Fatal(err)
	}

	// Coverage 1.0: every task, each counted once, so Covered is the whole.
	assertUniqueCompletions(t, report, p, 12)

	// The report's failure counters must match the injected fault ledger.
	if got := hangP.Counts(); got.Hung != 1 {
		t.Fatalf("hang ledger = %+v, want exactly 1 hang", got)
	}
	if got := corruptP.Counts(); got.Corrupted != 1 {
		t.Fatalf("corrupt ledger = %+v, want exactly 1 corruption", got)
	}
	if got := crashP.Counts(); got.Dropped != 1 {
		t.Fatalf("crash ledger = %+v, want exactly 1 drop", got)
	}
	if report.CorruptFrames != 1 {
		t.Fatalf("CorruptFrames = %d, want 1 (the injected corruption)", report.CorruptFrames)
	}
	if report.Retries != 1 {
		t.Fatalf("Retries = %d, want 1 (re-assign after the corrupt frame)", report.Retries)
	}
	if report.DeadWorkers != 2 {
		t.Fatalf("DeadWorkers = %d, want 2 (the hang and the crash)", report.DeadWorkers)
	}
	if report.HeartbeatMisses < ctrl.LivenessMisses {
		t.Fatalf("HeartbeatMisses = %d, want >= %d (the hung worker's silence)",
			report.HeartbeatMisses, ctrl.LivenessMisses)
	}
	if report.DuplicateDone != 0 {
		t.Fatalf("DuplicateDone = %d, want 0 (no duplicate completions injected)", report.DuplicateDone)
	}
}

// TestHedgeStragglerFirstDoneWins pins down hedged re-dispatch: a worker
// whose completion frame is delayed far past the task deadline gets its
// task speculatively re-sent to an idle healthy worker; the first
// completion wins and the late duplicate is discarded by dedup, counted
// once in coverage.
func TestHedgeStragglerFirstDoneWins(t *testing.T) {
	// No heartbeats on the straggler: its link is slow, not dead, and this
	// test isolates the deadline/hedging path from the liveness detector.
	stragglerW := chaosWorker(t, 1, 0, 0)
	healthyW := chaosWorker(t, 2, 0, 0)
	// slowW holds a genuinely long task so the run outlives the delayed
	// duplicate completion (and its expected-time-derived deadline keeps
	// it from being hedged itself).
	slowTask := 0.5 / (1000 * edgesim.RaspberryPiB.SecPerBit()) // ≈500ms per 1000-bit task
	slowW := chaosWorker(t, 3, 0, slowTask)

	delayP, err := netfault.New(stragglerW.Addr(), onlyDone(netfault.Delay, 0, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	delayP.SetDelay(300 * time.Millisecond)
	t.Cleanup(func() { delayP.Close() })

	ctrl := edgenet.NewController()
	ctrl.Tick = 5 * time.Millisecond
	ctrl.HedgeMinDeadline = 100 * time.Millisecond

	p, res := chaosPlan(4, 3) // tasks 0,3 -> straggler, task 1 -> healthy, task 2 -> slow
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	report, err := ctrl.Run(ctx, []string{delayP.Addr(), healthyW.Addr(), slowW.Addr()}, p, res, 1.0)
	if err != nil {
		t.Fatal(err)
	}

	assertUniqueCompletions(t, report, p, 4)
	if report.Hedges < 1 {
		t.Fatalf("Hedges = %d, want >= 1 (straggling task re-dispatched)", report.Hedges)
	}
	if report.DuplicateDone < 1 {
		t.Fatalf("DuplicateDone = %d, want >= 1 (the straggler's late completion)", report.DuplicateDone)
	}
	if report.DeadWorkers != 0 {
		t.Fatalf("DeadWorkers = %d, want 0 (slow is not dead)", report.DeadWorkers)
	}
	if got := delayP.Counts(); got.Delayed != 1 {
		t.Fatalf("delay ledger = %+v, want exactly 1 delayed frame", got)
	}
}

// TestCorruptQuarantine pins down the flaky-link policy: every corrupt
// frame is counted and retried, and a connection exceeding
// MaxCorruptFrames is quarantined — the worker is removed and its tasks
// finish elsewhere, rather than the stream poisoning results forever.
func TestCorruptQuarantine(t *testing.T) {
	flakyW := chaosWorker(t, 1, 0, 0)
	healthyW := chaosWorker(t, 2, 0, 0)

	corruptP, err := netfault.New(flakyW.Addr(), onlyDone(netfault.Corrupt, 0, true), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { corruptP.Close() })

	ctrl := edgenet.NewController()
	ctrl.Tick = 5 * time.Millisecond
	ctrl.MaxCorruptFrames = 3

	p, res := chaosPlan(4, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	report, err := ctrl.Run(ctx, []string{corruptP.Addr(), healthyW.Addr()}, p, res, 1.0)
	if err != nil {
		t.Fatal(err)
	}

	assertUniqueCompletions(t, report, p, 4)
	if report.CorruptFrames != 3 {
		t.Fatalf("CorruptFrames = %d, want 3 (quarantine threshold)", report.CorruptFrames)
	}
	if got := corruptP.Counts(); got.Corrupted != 3 {
		t.Fatalf("corrupt ledger = %+v, want exactly 3 corruptions", got)
	}
	if report.Retries != 2 {
		t.Fatalf("Retries = %d, want 2 (third corruption quarantines instead)", report.Retries)
	}
	if report.DeadWorkers != 1 {
		t.Fatalf("DeadWorkers = %d, want 1 (the quarantined link)", report.DeadWorkers)
	}
	for _, comp := range report.Completions {
		if comp.WorkerID == flakyW.ID {
			t.Fatalf("completion accepted from the quarantined worker: %+v", comp)
		}
	}
}

// TestRunClosesUnechoedSession pins the cancel barrier's bound: when the
// echo of a run's cancel hangs in the link, Run returns within the
// session's liveness window, and the next run does not reuse the session
// (it would hear nothing on it) but dials again and completes.
func TestRunClosesUnechoedSession(t *testing.T) {
	const beat = 20 * time.Millisecond
	w := chaosWorker(t, 1, beat, 0)
	var cancels atomic.Int32 // each session's relay runs the decider
	hangP, err := netfault.New(w.Addr(), func(i int, env *edgenet.Envelope) netfault.Action {
		if env != nil && env.Type == edgenet.MsgCancel && cancels.Add(1) == 1 {
			return netfault.Hang
		}
		return netfault.Pass
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hangP.Close() })

	ctrl := edgenet.NewController()
	ctrl.Tick = 5 * time.Millisecond
	window := time.Duration(3) * beat // the default LivenessMisses × the cadence
	p, res := chaosPlan(2, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for run := 0; run < 2; run++ {
		start := time.Now()
		report, err := ctrl.Run(ctx, []string{hangP.Addr()}, p, res, 1.0)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		elapsed := time.Since(start)
		assertUniqueCompletions(t, report, p, 2)
		if report.DeadWorkers != 0 {
			t.Fatalf("run %d: DeadWorkers = %d, want 0", run, report.DeadWorkers)
		}
		if run == 0 && (elapsed < window || elapsed > window+time.Second) {
			t.Fatalf("run with a hung echo took %v, want the %v window and little more", elapsed, window)
		}
	}
	if got := hangP.Counts(); got.Hung != 1 {
		t.Fatalf("hang ledger = %+v, want exactly 1 hang", got)
	}
}
