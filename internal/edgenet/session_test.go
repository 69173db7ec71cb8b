package edgenet

import (
	"context"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/edgesim"
)

// countingListener counts the connections a worker accepts: one per
// session a controller opens to it.
type countingListener struct {
	net.Listener
	accepts atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return conn, err
}

// serveCounted starts w on a loopback listener that counts accepts.
func serveCounted(t *testing.T, w *Worker) *countingListener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: l}
	if err := w.Serve(cl); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return cl
}

// TestWorkerCancelKeepsSession: a cancel sent mid-task stops the task
// without a done frame, drops the assigns queued behind it and is echoed
// exactly once; the next assign on the same connection then runs.
func TestWorkerCancelKeepsSession(t *testing.T) {
	const taskTime = 3 * time.Second
	w := &Worker{ID: 1, Type: edgesim.RaspberryPiB, TimeScale: taskScale(taskTime)}
	conn := dialWorker(t, w)
	for j := 0; j < 3; j++ {
		if err := WriteFrame(conn, &Envelope{Type: MsgAssign, TaskID: j, InputBits: 1000, Importance: 1}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let task 0 start; 1 and 2 queue
	start := time.Now()
	if err := WriteFrame(conn, &Envelope{Type: MsgCancel}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(taskTime / 3))
	env, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("no echo within %v: %v", taskTime/3, err)
	}
	if env.Type != MsgCancel || env.WorkerID != w.ID {
		t.Fatalf("first frame after the cancel = %+v, want the echo", env)
	}
	if elapsed := time.Since(start); elapsed >= taskTime/3 {
		t.Fatalf("echo after %v: the task was not stopped", elapsed)
	}
	// 10 bits run in ~30 µs of simulated time: the next frame must be its
	// done, neither a second echo nor a done of a dropped task.
	if err := WriteFrame(conn, &Envelope{Type: MsgAssign, TaskID: 7, InputBits: 10, Importance: 1}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(taskTime / 3))
	if env, err = ReadFrame(conn); err != nil {
		t.Fatal(err)
	}
	if env.Type != MsgDone || env.TaskID != 7 {
		t.Fatalf("frame after the echo = %q/%d, want done/7", env.Type, env.TaskID)
	}
}

// onePerRunPlan is run k of TestRunReusesSessions: of 2K tasks only 2k
// (importance 1, on processor 0) and 2k+1 (importance 0.01, on processor
// 1) are planned, so 2k alone covers the target.
func onePerRunPlan(k, runs int) (*core.Problem, *alloc.Result) {
	p, res := testPlan(2*runs, 2)
	for j := range p.Tasks {
		p.Tasks[j].Importance = 0
		res.Allocation[j] = core.Unassigned
	}
	p.Tasks[2*k].Importance, res.Allocation[2*k] = 1, 0
	p.Tasks[2*k+1].Importance, res.Allocation[2*k+1] = 0.01, 1
	for j := range res.Priority {
		res.Priority[j] = p.Tasks[j].Importance
	}
	return p, res
}

// TestRunReusesSessions: sequential runs dial each worker once. Each run
// ends at its fast task while the slow worker still executes its task; the
// cancel barrier stops that task, and its completion never reaches the
// next run, where the task is not planned and would count as corrupt.
func TestRunReusesSessions(t *testing.T) {
	const runs = 4
	const slowTask = 2 * time.Second
	// A 100 ms cadence gives each echo a 300 ms window, so a loaded host
	// does not close a session the test expects to be reused.
	fast := &Worker{ID: 1, Type: edgesim.RaspberryPiB, HeartbeatEvery: 100 * time.Millisecond}
	slow := &Worker{ID: 2, Type: edgesim.RaspberryPiB, TimeScale: taskScale(slowTask), HeartbeatEvery: 100 * time.Millisecond}
	lf, ls := serveCounted(t, fast), serveCounted(t, slow)
	addrs := []string{fast.Addr(), slow.Addr()}
	start := time.Now()
	for k := 0; k < runs; k++ {
		p, res := onePerRunPlan(k, runs)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		report, err := NewController().Run(ctx, addrs, p, res, 0.8)
		cancel()
		if err != nil {
			t.Fatalf("run %d: %v", k, err)
		}
		if len(report.Completions) != 1 || report.Completions[0].Task != 2*k {
			t.Fatalf("run %d completions = %+v, want only task %d", k, report.Completions, 2*k)
		}
		if report.CorruptFrames != 0 || report.DuplicateDone != 0 || report.DeadWorkers != 0 {
			t.Fatalf("run %d: corrupt %d, duplicates %d, dead %d; want 0/0/0",
				k, report.CorruptFrames, report.DuplicateDone, report.DeadWorkers)
		}
	}
	if elapsed := time.Since(start); elapsed >= slowTask {
		t.Fatalf("%d runs took %v: an abandoned %v task was waited for", runs, elapsed, slowTask)
	}
	if a, b := lf.accepts.Load(), ls.accepts.Load(); a != 1 || b != 1 {
		t.Fatalf("accepts = %d/%d over %d runs, want 1/1", a, b, runs)
	}
}

// TestRunForgetsClosedSession: a worker that closes between runs fails
// over as a dead address does, and the fleet keeps nothing for it.
func TestRunForgetsClosedSession(t *testing.T) {
	workers, addrs := startWorkers(t, 2)
	p, res := testPlan(6, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := NewController().Run(ctx, addrs, p, res, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := workers[1].Close(); err != nil {
		t.Fatal(err)
	}
	report, err := NewController().Run(ctx, addrs, p, res, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Completions) != 6 {
		t.Fatalf("completions = %d, want 6", len(report.Completions))
	}
	for _, comp := range report.Completions {
		if comp.WorkerID != workers[0].ID {
			t.Fatalf("task %d completed on worker %d, want the live worker", comp.Task, comp.WorkerID)
		}
	}
	fleet.mu.Lock()
	idle, mute := len(fleet.idle[addrs[1]]), fleet.mute[addrs[1]]
	fleet.mu.Unlock()
	if idle != 0 || mute != 0 {
		t.Fatalf("fleet keeps %d sessions and %d greetings for the closed worker", idle, mute)
	}
}

// TestRunConcurrentSessions: two Runs at once on the same addresses each
// get their own session, and neither sees the other's completions.
func TestRunConcurrentSessions(t *testing.T) {
	var lns []*countingListener
	var addrs []string
	for i := 0; i < 3; i++ {
		w := &Worker{ID: i + 1, Type: edgesim.RaspberryPiB, TimeScale: taskScale(50 * time.Millisecond),
			HeartbeatEvery: 100 * time.Millisecond} // a 300 ms echo window, as in TestRunReusesSessions
		lns = append(lns, serveCounted(t, w))
		addrs = append(addrs, w.Addr())
	}
	p, res := testPlan(6, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	run := func() error {
		report, err := NewController().Run(ctx, addrs, p, res, 1.0)
		if err != nil {
			return err
		}
		if len(report.Completions) != 6 || report.DuplicateDone != 0 || report.CorruptFrames != 0 {
			t.Errorf("completions %d, duplicates %d, corrupt %d; want 6/0/0",
				len(report.Completions), report.DuplicateDone, report.CorruptFrames)
		}
		return nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// A third run takes one of the two pooled sessions.
	if err := run(); err != nil {
		t.Fatal(err)
	}
	for i, l := range lns {
		if n := l.accepts.Load(); n != 2 {
			t.Fatalf("worker %d accepted %d sessions, want 2", i+1, n)
		}
	}
}

// TestRunRedialsRestartedWorker: a worker that closes after a run and comes
// back on the same address is dialed afresh by the next Run, which puts it
// back in the dispatch pool: it runs its own planned tasks again.
func TestRunRedialsRestartedWorker(t *testing.T) {
	workers, addrs := startWorkers(t, 2)
	p, res := testPlan(6, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := NewController().Run(ctx, addrs, p, res, 1.0); err != nil {
		t.Fatal(err)
	}
	fleet.mu.Lock()
	idle := slices.Clone(fleet.idle[addrs[1]])
	fleet.mu.Unlock()
	if len(idle) != 1 {
		t.Fatalf("fleet holds %d sessions for worker 2 after run 1, want 1", len(idle))
	}
	if err := workers[1].Close(); err != nil {
		t.Fatal(err)
	}
	// The next Run skips a closed session: wait until its reader has seen
	// the hangup.
	select {
	case <-idle[0].quit:
	case <-ctx.Done():
		t.Fatal("the closed worker's session never saw the hangup")
	}
	l, err := net.Listen("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	restarted := &Worker{ID: 12, Type: edgesim.RaspberryPiB}
	if err := restarted.Serve(l); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restarted.Close() })

	report, err := NewController().Run(ctx, addrs, p, res, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Completions) != 6 || report.DeadWorkers != 0 {
		t.Fatalf("completions = %d, dead = %d; want 6, 0", len(report.Completions), report.DeadWorkers)
	}
	if report.Workers[1] != restarted.ID {
		t.Fatalf("Workers = %v, want slot 1 -> the restarted worker %d", report.Workers, restarted.ID)
	}
	for _, comp := range report.Completions {
		if want := []int{workers[0].ID, restarted.ID}[comp.Task%2]; comp.WorkerID != want {
			t.Fatalf("task %d completed on worker %d, want its planned worker %d", comp.Task, comp.WorkerID, want)
		}
	}
}
