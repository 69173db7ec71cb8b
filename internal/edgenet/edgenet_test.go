package edgenet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/edgesim"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Envelope{Type: MsgAssign, TaskID: 7, InputBits: 123.5, Importance: 0.9}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if *out != *in {
		t.Fatalf("round trip: %+v vs %+v", out, in)
	}
}

// rawFrame builds a frame header claiming n payload bytes, followed by
// payload, with payload's own CRC.
func rawFrame(n uint32, payload []byte) []byte {
	head := make([]byte, frameHeader)
	head[0], head[1], head[2] = frameMagic0, frameMagic1, frameVersion
	binary.BigEndian.PutUint32(head[3:7], n)
	binary.BigEndian.PutUint32(head[7:11], crc32.Checksum(payload, frameCRC))
	return append(head, payload...)
}

func TestReadFrameErrors(t *testing.T) {
	// Oversized length prefix.
	if _, err := ReadFrame(bytes.NewReader(rawFrame(MaxFrameBytes+1, nil))); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize err = %v", err)
	}
	// Truncated payload.
	if _, err := ReadFrame(bytes.NewReader(rawFrame(10, []byte("x")))); err == nil || StreamAligned(err) {
		t.Fatalf("truncated frame err = %v, want framing lost", err)
	}
	// Truncated header.
	if _, err := ReadFrame(bytes.NewReader(rawFrame(2, []byte("{}"))[:5])); err == nil || StreamAligned(err) {
		t.Fatalf("truncated header err = %v, want framing lost", err)
	}
	// Bad magic: framing is lost, not one frame.
	badMagic := rawFrame(2, []byte("{}"))
	badMagic[1] = 'x'
	if _, err := ReadFrame(bytes.NewReader(badMagic)); err == nil || StreamAligned(err) {
		t.Fatalf("bad magic err = %v, want framing lost", err)
	}
	// Bad JSON.
	payload := []byte("not json")
	if _, err := ReadFrame(bytes.NewReader(rawFrame(uint32(len(payload)), payload))); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("bad json err = %v", err)
	}
	// Missing type.
	payload = []byte("{}")
	if _, err := ReadFrame(bytes.NewReader(rawFrame(uint32(len(payload)), payload))); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("typeless err = %v", err)
	}
	// EOF propagates for clean shutdown detection.
	if _, err := ReadFrame(bytes.NewReader(nil)); !errors.Is(err, errEOF()) {
		t.Fatalf("eof err = %v", err)
	}
}

func errEOF() error {
	var b bytes.Buffer
	_, err := b.Read(make([]byte, 1))
	return err
}

// startWorkers launches n in-process workers on loopback listeners.
func startWorkers(t *testing.T, n int) ([]*Worker, []string) {
	t.Helper()
	types := []edgesim.NodeType{
		edgesim.RaspberryPiAPlus, edgesim.RaspberryPiB, edgesim.RaspberryPiBPlus,
	}
	workers := make([]*Worker, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		w := &Worker{ID: i + 1, Type: types[i%len(types)], TimeScale: 0}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Serve(l); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := w.Close(); err != nil {
				t.Errorf("worker close: %v", err)
			}
		})
		workers[i] = w
		addrs[i] = w.Addr()
	}
	return workers, addrs
}

func testPlan(n, m int) (*core.Problem, *alloc.Result) {
	p := &core.Problem{TimeLimit: 100}
	for j := 0; j < n; j++ {
		imp := 0.05
		if j < 2 {
			imp = 0.8
		}
		p.Tasks = append(p.Tasks, core.TaskSpec{
			ID: j, Importance: imp, TimeCost: 1, Resource: 0, InputBits: 1000,
		})
	}
	for i := 0; i < m; i++ {
		p.Processors = append(p.Processors, core.Processor{ID: i, Capacity: 100, SpeedFactor: 1})
	}
	a := make(core.Allocation, n)
	prio := make([]float64, n)
	for j := range a {
		a[j] = j % m
		prio[j] = p.Tasks[j].Importance
	}
	return p, &alloc.Result{Allocation: a, Priority: prio}
}

// TestControllerRunsPlan runs the whole plan: coverage 1.0 asks for every
// task, so each must complete exactly once.
func TestControllerRunsPlan(t *testing.T) {
	_, addrs := startWorkers(t, 3)
	p, res := testPlan(9, 3)
	ctrl := NewController()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	report, err := ctrl.Run(ctx, addrs, p, res, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Completions) != 9 {
		t.Fatalf("completions = %d, want 9", len(report.Completions))
	}
	seen := make(map[int]bool)
	for _, comp := range report.Completions {
		if seen[comp.Task] {
			t.Fatalf("task %d completed twice", comp.Task)
		}
		seen[comp.Task] = true
	}
	if total := p.TotalImportance(); math.Abs(report.Covered-total) > 1e-9 {
		t.Fatalf("covered %v, want the whole %v", report.Covered, total)
	}
	// Every processor maps to an announced worker ID.
	for i := 0; i < 3; i++ {
		if report.Workers[i] != i+1 {
			t.Fatalf("worker map = %v", report.Workers)
		}
	}
}

// TestRunEndsAtDecision pins the termination rule: at coverage 0.8 Run
// returns with the completion that met the target, so its last completion
// is at DecisionReadyAt and the tasks behind it are abandoned.
func TestRunEndsAtDecision(t *testing.T) {
	_, addrs := startWorkers(t, 3)
	p, res := testPlan(9, 3)
	ctrl := NewController()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	report, err := ctrl.Run(ctx, addrs, p, res, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if report.DecisionReadyAt <= 0 {
		t.Fatal("decision never became ready")
	}
	if target := 0.8 * p.TotalImportance(); report.Covered < target {
		t.Fatalf("covered %v below target %v", report.Covered, target)
	}
	last := report.Completions[len(report.Completions)-1]
	if last.At != report.DecisionReadyAt {
		t.Fatalf("last completion at %v, decision at %v", last.At, report.DecisionReadyAt)
	}
	// The two important tasks head their workers' queues and cover the
	// target between them: nothing else needs to run.
	if len(report.Completions) >= 9 {
		t.Fatalf("completions = %d: Run waited past the decision", len(report.Completions))
	}
}

// TestRunKeepsPlacement pins that Run executes the plan's placement: a
// worker that drains its own queue early stays idle rather than taking a
// slower peer's planned tasks.
func TestRunKeepsPlacement(t *testing.T) {
	fast := &Worker{ID: 1, Type: edgesim.RaspberryPiB, TimeScale: taskScale(time.Millisecond)}
	slow := &Worker{ID: 2, Type: edgesim.RaspberryPiB, TimeScale: taskScale(15 * time.Millisecond)}
	var addrs []string
	for _, w := range []*Worker{fast, slow} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Serve(l); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		addrs = append(addrs, w.Addr())
	}
	p, res := testPlan(8, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	report, err := NewController().Run(ctx, addrs, p, res, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Completions) != 8 {
		t.Fatalf("completions = %d, want 8", len(report.Completions))
	}
	for _, comp := range report.Completions {
		if want := report.Workers[res.Allocation[comp.Task]]; comp.WorkerID != want {
			t.Fatalf("task %d ran on worker %d, planned on worker %d", comp.Task, comp.WorkerID, want)
		}
	}
	if report.Hedges != 0 || report.DuplicateDone != 0 {
		t.Fatalf("hedges = %d, duplicates = %d, want 0/0", report.Hedges, report.DuplicateDone)
	}
}

// TestRunZeroTargetReady: a plan without importance has a zero coverage
// target, which is met once every assigned task has completed — also when
// no task is assigned at all.
func TestRunZeroTargetReady(t *testing.T) {
	_, addrs := startWorkers(t, 2)
	for _, tc := range []struct {
		name   string
		assign bool
	}{{"all assigned", true}, {"none assigned", false}} {
		p, res := testPlan(4, 2)
		for j := range p.Tasks {
			p.Tasks[j].Importance = 0
			if !tc.assign {
				res.Allocation[j] = core.Unassigned
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		report, err := NewController().Run(ctx, addrs, p, res, 0.8)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := 0
		if tc.assign {
			want = 4
		}
		if len(report.Completions) != want {
			t.Fatalf("%s: completions = %d, want %d", tc.name, len(report.Completions), want)
		}
		if report.DecisionReadyAt <= 0 {
			t.Fatalf("%s: DecisionReadyAt = %v, want > 0", tc.name, report.DecisionReadyAt)
		}
		if want > 0 && report.DecisionReadyAt < report.Completions[want-1].At {
			t.Fatalf("%s: ready at %v, before the last completion at %v",
				tc.name, report.DecisionReadyAt, report.Completions[want-1].At)
		}
	}
}

// TestPrepareCoverageTarget: a coverage target outside (0, 1], NaN and the
// infinities included, means the paper's 0.8.
func TestPrepareCoverageTarget(t *testing.T) {
	p, res := testPlan(4, 2)
	total := p.TotalImportance()
	for _, tc := range []struct {
		in, want float64
	}{
		{math.NaN(), 0.8}, {math.Inf(1), 0.8}, {math.Inf(-1), 0.8},
		{0, 0.8}, {-1, 0.8}, {1.5, 0.8}, {1, 1}, {0.5, 0.5},
	} {
		_, _, target, err := prepare([]string{"a", "b"}, p, res, tc.in)
		if err != nil {
			t.Fatalf("prepare(%v): %v", tc.in, err)
		}
		if !(math.Abs(target-tc.want*total) <= 1e-12) { // NaN fails too
			t.Fatalf("prepare(%v) target = %v, want %v", tc.in, target, tc.want*total)
		}
	}
}

func TestControllerValidation(t *testing.T) {
	ctrl := NewController()
	ctx := context.Background()
	p, res := testPlan(4, 2)
	if _, err := ctrl.Run(ctx, nil, p, res, 0.8); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("no workers err = %v", err)
	}
	_, addrs := startWorkers(t, 2)
	short := &alloc.Result{Allocation: core.Allocation{0}}
	if _, err := ctrl.Run(ctx, addrs, p, short, 0.8); !errors.Is(err, ErrPlanMismatch) {
		t.Fatalf("short plan err = %v", err)
	}
	badProc := &alloc.Result{Allocation: core.Allocation{5, 0, 0, 0}}
	if _, err := ctrl.Run(ctx, addrs, p, badProc, 0.8); !errors.Is(err, ErrPlanMismatch) {
		t.Fatalf("bad processor err = %v", err)
	}
	// A dead address leaves no worker to run the plan.
	deadCtrl := NewController()
	deadCtrl.DialTimeout = 200 * time.Millisecond
	p1, res1 := testPlan(4, 1)
	if _, err := deadCtrl.Run(ctx, []string{"127.0.0.1:1"}, p1, res1, 0.8); !errors.Is(err, ErrAllWorkersDown) {
		t.Fatalf("dead address err = %v, want ErrAllWorkersDown", err)
	}
}

func TestControllerContextCancel(t *testing.T) {
	// A slow worker plus a cancelled context must abort promptly.
	w := &Worker{ID: 1, Type: edgesim.RaspberryPiAPlus, TimeScale: 1} // real-time: slow
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Serve(l); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	p, res := testPlan(2, 1)
	// 3e6 bits × 4.75e-7 s/bit ≈ 1.4 s per task: beyond the deadline but
	// short enough that worker cleanup stays quick.
	for j := range p.Tasks {
		p.Tasks[j].InputBits = 3e6
	}
	ctrl := NewController()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = ctrl.Run(ctx, []string{w.Addr()}, p, res, 0.8)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled run err = %v, want the context's", err)
	}
	if elapsed := time.Since(start); elapsed > 1*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestWorkerLifecycle(t *testing.T) {
	w := &Worker{ID: 9, Type: edgesim.Laptop}
	if w.Addr() != "" {
		t.Fatal("address before Serve should be empty")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Serve(l); err != nil {
		t.Fatal(err)
	}
	if err := w.Serve(l); err == nil {
		t.Fatal("double Serve accepted")
	}
	if !strings.Contains(w.Addr(), "127.0.0.1") {
		t.Fatalf("Addr = %q", w.Addr())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Idempotent close.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkerRejectsProtocolViolation(t *testing.T) {
	_, addrs := startWorkers(t, 1)
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := ReadFrame(conn); err != nil { // hello
		t.Fatal(err)
	}
	// Send an unexpected message type: the worker must drop the connection.
	if err := WriteFrame(conn, &Envelope{Type: MsgHello}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := ReadFrame(conn); err == nil {
		t.Fatal("worker kept talking after protocol violation")
	}
}

// TestRunBoundsMuteGreeting: a peer that accepts the connection but never
// says hello is dead from the start, within about DialTimeout even under a
// context with no deadline; its tasks run on the live worker. Only the
// first run waits for it.
func TestRunBoundsMuteGreeting(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { conn.Close() }) // mute: hold it open, never write
		}
	}()
	_, addrs := startWorkers(t, 1)
	p, res := testPlan(4, 2)
	ctrl := NewController()
	ctrl.DialTimeout = 200 * time.Millisecond
	start := time.Now()
	report, err := ctrl.Run(context.Background(), []string{addrs[0], l.Addr().String()}, p, res, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("mute greeting stalled Run for %v", elapsed)
	}
	if len(report.Completions) != 4 {
		t.Fatalf("completions = %d, want 4", len(report.Completions))
	}
	for _, comp := range report.Completions {
		if comp.WorkerID != 1 {
			t.Fatalf("task %d completed on worker %d, want the live worker 1", comp.Task, comp.WorkerID)
		}
	}
	if _, ok := report.Workers[1]; ok {
		t.Fatalf("mute worker admitted: %v", report.Workers)
	}

	// The mute greeting goes on in the background: a second run treats the
	// address as dead at once instead of waiting for it again.
	start = time.Now()
	again, err := ctrl.Run(context.Background(), []string{addrs[0], l.Addr().String()}, p, res, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= ctrl.DialTimeout/2 {
		t.Fatalf("second run took %v: it waited for the mute greeting again", elapsed)
	}
	if len(again.Completions) != 4 {
		t.Fatalf("second run completions = %d, want 4", len(again.Completions))
	}
	for _, comp := range again.Completions {
		if comp.WorkerID != 1 {
			t.Fatalf("second run: task %d completed on worker %d, want 1", comp.Task, comp.WorkerID)
		}
	}
}

// TestMuteGreetingReleasedAfterBound: a greeting that Run gave up on is
// hung up on once its hello is lateHelloFactor DialTimeouts overdue, and the
// address is no longer mute: a later run dials it again.
func TestMuteGreetingReleasedAfterBound(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan net.Conn, 4) // two runs dial it at most once each
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { conn.Close() }) // mute: hold it open, never write
			accepted <- conn
		}
	}()
	_, addrs := startWorkers(t, 1)
	mute := l.Addr().String()
	p, res := testPlan(4, 2)
	ctrl := NewController()
	ctrl.DialTimeout = 50 * time.Millisecond
	run := func() {
		t.Helper()
		report, err := ctrl.Run(context.Background(), []string{addrs[0], mute}, p, res, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if len(report.Completions) != 4 {
			t.Fatalf("completions = %d, want 4", len(report.Completions))
		}
	}
	run()

	var conn net.Conn
	select {
	case conn = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("the mute address was never dialed")
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("mute connection read: %v, want EOF once the hello bound expires", err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		fleet.mu.Lock()
		n := fleet.mute[mute]
		fleet.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mute count %d after the hello bound, want 0", n)
		}
	}

	run()
	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("a run after the hello bound did not dial the address again")
	}
}

// taskScale is the TimeScale at which a 1000-bit task takes d on a
// RaspberryPiB worker.
func taskScale(d time.Duration) float64 {
	return d.Seconds() / (1000 * edgesim.RaspberryPiB.SecPerBit())
}

// dialWorker starts one worker and opens a raw controller connection to
// it, past the hello.
func dialWorker(t *testing.T, w *Worker) net.Conn {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Serve(l); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	conn, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := readHello(conn, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	return conn
}

func (w *Worker) liveConns() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.conns)
}

// TestWorkerDropsTaskOnHangup: when the controller hangs up mid-task the
// worker stops the task at once, so Close returns well before the task's
// full time.
func TestWorkerDropsTaskOnHangup(t *testing.T) {
	const taskTime = 3 * time.Second
	w := &Worker{ID: 1, Type: edgesim.RaspberryPiB, TimeScale: taskScale(taskTime)}
	conn := dialWorker(t, w)
	if err := WriteFrame(conn, &Envelope{Type: MsgAssign, TaskID: 0, InputBits: 1000, Importance: 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the task start
	start := time.Now()
	conn.Close()
	for w.liveConns() > 0 {
		if time.Since(start) > taskTime/3 {
			t.Fatal("worker kept executing after the controller hung up")
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > taskTime/3 {
		t.Fatalf("Close took %v of a %v task", elapsed, taskTime)
	}
}

// TestWorkerShutdownStopsTask: a frame other than an assign mid-task shuts
// the connection down and drops the task without a completion.
func TestWorkerShutdownStopsTask(t *testing.T) {
	const taskTime = 3 * time.Second
	w := &Worker{ID: 1, Type: edgesim.RaspberryPiB, TimeScale: taskScale(taskTime)}
	conn := dialWorker(t, w)
	if err := WriteFrame(conn, &Envelope{Type: MsgAssign, TaskID: 0, InputBits: 1000, Importance: 1}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, &Envelope{Type: MsgHeartbeat}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(taskTime / 3))
	env, err := ReadFrame(conn)
	if err == nil {
		t.Fatalf("worker sent %q after a non-assign frame", env.Type)
	}
	if elapsed := time.Since(start); elapsed >= taskTime/3 {
		t.Fatalf("connection still open %v after a non-assign frame", elapsed)
	}
}

// TestWorkerQueuesMidTaskAssign: an assign that arrives while a task
// executes runs after it, in order.
func TestWorkerQueuesMidTaskAssign(t *testing.T) {
	w := &Worker{ID: 1, Type: edgesim.RaspberryPiB, TimeScale: taskScale(50 * time.Millisecond)}
	conn := dialWorker(t, w)
	for j := 0; j < 2; j++ {
		if err := WriteFrame(conn, &Envelope{Type: MsgAssign, TaskID: j, InputBits: 1000, Importance: 1}); err != nil {
			t.Fatal(err)
		}
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for j := 0; j < 2; j++ {
		env, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if env.Type != MsgDone || env.TaskID != j {
			t.Fatalf("frame %d = %q/%d, want done/%d", j, env.Type, env.TaskID, j)
		}
	}
}
