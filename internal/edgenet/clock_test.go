package edgenet

import (
	"context"
	"errors"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/edgesim"
)

// laptopBits is the input size that takes d on a laptop worker at
// TimeScale 0.001.
func laptopBits(d time.Duration) float64 {
	return d.Seconds() / (edgesim.Laptop.SecPerBit() * 0.001)
}

// clockBurst writes n assigns of one task time back to back on conn and
// checks each done against the model clock: the tasks run one after the
// other from the first one's arrival, each reports exactly its modelled
// time, and none is done before its modelled end. It returns when the last
// done arrived, counted from before the first write.
func clockBurst(t *testing.T, conn net.Conn, n int, task time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	for j := 0; j < n; j++ {
		if err := WriteFrame(conn, &Envelope{Type: MsgAssign, TaskID: j, InputBits: laptopBits(task), Importance: 1}); err != nil {
			t.Fatal(err)
		}
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var at time.Duration
	for j := 0; j < n; j++ {
		env, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		at = time.Since(start)
		if env.Type != MsgDone || env.TaskID != j {
			t.Fatalf("frame %d = %q/%d, want done/%d", j, env.Type, env.TaskID, j)
		}
		if want := task.Microseconds(); env.ElapsedMicros < want-1 || env.ElapsedMicros > want+1 {
			t.Errorf("task %d reports %d µs, want %d ± 1", j, env.ElapsedMicros, want)
		}
		if end := time.Duration(j+1) * task; at < end {
			t.Errorf("task %d done at %v, before its modelled end %v", j, at, end)
		}
	}
	return at
}

// TestWorkerKeepsModelClock: eight 300 µs tasks written back to back run
// on the worker's model clock. Each starts when the one before was
// scheduled to end, so the eighth is done at 2.4 ms plus one wake-up and a
// frame, not after eight of the runtime timer's ~1 ms grains. The bound is
// met by the best of three bursts, so one scheduling stall of a loaded host
// does not fail it; every burst must keep the clock's other checks.
func TestWorkerKeepsModelClock(t *testing.T) {
	const (
		n    = 8
		task = 300 * time.Microsecond
	)
	w := &Worker{ID: 1, Type: edgesim.Laptop, TimeScale: 0.001}
	conn := dialWorker(t, w)
	var took []time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		last := clockBurst(t, conn, n, task)
		if last < 4400*time.Microsecond {
			t.Logf("8 × %v tasks done after %v", task, last)
			return
		}
		took = append(took, last)
	}
	t.Fatalf("8 × %v tasks took %v, want under 4.4 ms", task, took)
}

// TestModelClockCancelResetsFree: a task stopped by a cancel never reaches
// its scheduled end, so it does not delay the next run's first task. Were
// free not reset, that task would wait out the ~45 ms left of the cancelled
// one on every attempt; the 2 ms bound is met by the best of three, so one
// scheduling stall of a loaded host does not fail it.
func TestModelClockCancelResetsFree(t *testing.T) {
	w := &Worker{ID: 1, Type: edgesim.Laptop, TimeScale: 0.001}
	conn := dialWorker(t, w)
	var took []time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		if err := WriteFrame(conn, &Envelope{Type: MsgAssign, TaskID: 2 * attempt, InputBits: laptopBits(50 * time.Millisecond), Importance: 1}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		if err := WriteFrame(conn, &Envelope{Type: MsgCancel}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		env, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if env.Type != MsgCancel {
			t.Fatalf("first frame after the cancel = %q, want the echo", env.Type)
		}
		sent := time.Now()
		if err := WriteFrame(conn, &Envelope{Type: MsgAssign, TaskID: 2*attempt + 1, InputBits: laptopBits(300 * time.Microsecond), Importance: 1}); err != nil {
			t.Fatal(err)
		}
		if env, err = ReadFrame(conn); err != nil {
			t.Fatal(err)
		}
		if env.Type != MsgDone || env.TaskID != 2*attempt+1 {
			t.Fatalf("frame after the echo = %q/%d, want done/%d", env.Type, env.TaskID, 2*attempt+1)
		}
		d := time.Since(sent)
		if d < 2*time.Millisecond {
			return
		}
		took = append(took, d)
	}
	t.Fatalf("a 300 µs task after the echo took %v, want under 2 ms", took)
}

// TestModelClockCancelInLastMillisecond: a cancel that arrives while a
// task sleeps out its last millisecond still stops it at once. The cancel
// is written 0.7 ms before the task's end; when the host delays it past
// the end, the task's done comes first, and when it delays the echo past
// 2 ms, the check is retried: one attempt in three must pass.
func TestModelClockCancelInLastMillisecond(t *testing.T) {
	const task = 10 * time.Millisecond
	w := &Worker{ID: 1, Type: edgesim.Laptop, TimeScale: 0.001}
	conn := dialWorker(t, w)
	var slow []time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		start := time.Now()
		if err := WriteFrame(conn, &Envelope{Type: MsgAssign, TaskID: attempt, InputBits: laptopBits(task), Importance: 1}); err != nil {
			t.Fatal(err)
		}
		for time.Since(start) < task-700*time.Microsecond {
			// Spin: a runtime timer would wake up to a millisecond late.
		}
		sent := time.Now()
		if err := WriteFrame(conn, &Envelope{Type: MsgCancel}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		env, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		took := time.Since(sent)
		if env.Type == MsgDone {
			// The cancel came after the task's end: read its echo and retry.
			if env, err = ReadFrame(conn); err != nil || env.Type != MsgCancel {
				t.Fatalf("after a late cancel: %v, %v; want the echo", env, err)
			}
			continue
		}
		if env.Type != MsgCancel {
			t.Fatalf("first frame after the cancel = %q, want the echo", env.Type)
		}
		if took < 2*time.Millisecond {
			return
		}
		slow = append(slow, took)
	}
	t.Fatalf("no cancel in a task's last millisecond echoed within 2 ms (slow echoes: %v; the rest came after their task's end)", slow)
}

// TestWorkerRejectsBadTimeScale: a time scale that is NaN, infinite or
// negative fails Serve, before the worker greets anyone with it.
func TestWorkerRejectsBadTimeScale(t *testing.T) {
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w := &Worker{ID: 3, Type: edgesim.RaspberryPiB, TimeScale: scale}
		err = w.Serve(l)
		l.Close()
		if err == nil || !strings.Contains(err.Error(), "time scale") {
			t.Errorf("Serve with TimeScale %v: err = %v, want one naming the time scale", scale, err)
		}
	}
}

// TestHugeTimeScaleSaturates: a task whose time overflows a Duration never
// ends rather than ending at once, and its hedge deadline saturates rather
// than wrapping into the past.
func TestHugeTimeScaleSaturates(t *testing.T) {
	slow := &Worker{ID: 1, Type: edgesim.RaspberryPiB, TimeScale: 1e300}
	conn := dialWorker(t, slow)
	if err := WriteFrame(conn, &Envelope{Type: MsgAssign, TaskID: 0, InputBits: 1000, Importance: 1}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if env, err := ReadFrame(conn); err == nil {
		t.Fatalf("a 1e300-scaled task sent %q within 50 ms", env.Type)
	}

	r := &ftRun{c: NewController()}
	w := &ftWorker{secPerBit: edgesim.RaspberryPiB.SecPerBit(), timeScale: 1e300}
	if d := r.deadlineFor(w, core.TaskSpec{InputBits: 1000}); d != math.MaxInt64 {
		t.Fatalf("hedge deadline = %v, want the largest Duration", d)
	}

	// Live: an idle instant worker beside the slow one takes no hedge, so
	// the run is still waiting when its context ends.
	_, addrs := startWorkers(t, 1)
	p, res := testPlan(1, 2)
	res.Allocation[0] = 1 // the one task on the slow worker
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rep, err := NewController().Run(ctx, []string{addrs[0], slow.Addr()}, p, res, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run = %+v, %v; want the context's deadline (no hedge, no done)", rep, err)
	}
}
