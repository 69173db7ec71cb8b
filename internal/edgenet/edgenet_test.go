package edgenet

import (
	"bytes"
	"context"
	"errors"
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

func TestReadFrameErrors(t *testing.T) {
	// Oversized length prefix.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize err = %v", err)
	}
	// Truncated payload.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 10, 'x'})
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// Bad JSON.
	buf.Reset()
	payload := []byte("not json")
	buf.Write([]byte{0, 0, 0, byte(len(payload))})
	buf.Write(payload)
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("bad json accepted")
	}
	// Missing type.
	buf.Reset()
	payload = []byte("{}")
	buf.Write([]byte{0, 0, 0, byte(len(payload))})
	buf.Write(payload)
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("typeless err = %v", err)
	}
	// EOF propagates for clean shutdown detection.
	buf.Reset()
	if _, err := ReadFrame(&buf); !errors.Is(err, errEOF()) {
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
	// Dead address.
	deadCtrl := NewController()
	deadCtrl.DialTimeout = 200 * time.Millisecond
	if _, err := deadCtrl.Run(ctx, []string{"127.0.0.1:1"}, p, res, 0.8); err == nil {
		t.Fatal("dial to dead address succeeded")
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
	if err == nil {
		t.Fatal("cancelled run succeeded")
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
// says hello must fail Run within about DialTimeout, even under a context
// with no deadline.
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
	if _, err := ctrl.Run(context.Background(), []string{addrs[0], l.Addr().String()}, p, res, 0.8); err == nil {
		t.Fatal("Run succeeded against a mute worker")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("mute greeting stalled Run for %v", elapsed)
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

// TestWorkerShutdownStopsTask: MsgShutdown mid-task drops the task and the
// connection without a completion.
func TestWorkerShutdownStopsTask(t *testing.T) {
	const taskTime = 3 * time.Second
	w := &Worker{ID: 1, Type: edgesim.RaspberryPiB, TimeScale: taskScale(taskTime)}
	conn := dialWorker(t, w)
	if err := WriteFrame(conn, &Envelope{Type: MsgAssign, TaskID: 0, InputBits: 1000, Importance: 1}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, &Envelope{Type: MsgShutdown}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(taskTime / 3))
	env, err := ReadFrame(conn)
	if err == nil {
		t.Fatalf("worker sent %q after shutdown", env.Type)
	}
	if elapsed := time.Since(start); elapsed >= taskTime/3 {
		t.Fatalf("connection still open %v after shutdown", elapsed)
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
