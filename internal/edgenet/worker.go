package edgenet

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/edgesim"
)

// Worker is one edge node process: it accepts a controller connection,
// announces its hardware class, and executes assigned tasks sequentially
// (edge devices in the testbed are single-board computers).
type Worker struct {
	// ID identifies the worker to the controller.
	ID int
	// Type sets the per-bit computation time (edgesim constants).
	Type edgesim.NodeType
	// TimeScale scales simulated execution: a task takes
	// InputBits × SecPerBit × TimeScale of wall-clock time, counted from
	// its arrival or from the previous task's scheduled end, whichever is
	// later (see handle), and on Linux its done is sent within tens of µs
	// of that end (see sleepUntil). 0 runs instantly (tests); 1 is
	// real-time. Serve rejects a NaN, infinite or negative scale; a task
	// too long for a time.Duration never ends.
	TimeScale float64
	// HeartbeatEvery is the cadence of MsgHeartbeat liveness beacons sent
	// on every controller connection (from a goroutine concurrent with
	// task execution, so a busy worker still beats). 0 disables
	// heartbeats; the controller then cannot distinguish this worker
	// hanging from it computing, and only hedging recovers its tasks.
	HeartbeatEvery time.Duration

	mu       sync.Mutex
	listener net.Listener
	done     chan struct{}
	closed   bool
	conns    map[net.Conn]struct{} // all live protocol connections
	handlers sync.WaitGroup        // rejoin handlers (accept-side ones are waited via done)
}

// Serve starts accepting controller connections on l and returns
// immediately; Close shuts the worker down and waits for the serve loop.
func (w *Worker) Serve(l net.Listener) error {
	if !(w.TimeScale >= 0) || math.IsInf(w.TimeScale, 1) {
		return fmt.Errorf("edgenet: worker %d time scale %v: want finite and non-negative", w.ID, w.TimeScale)
	}
	w.mu.Lock()
	if w.listener != nil {
		w.mu.Unlock()
		return fmt.Errorf("edgenet: worker %d already serving", w.ID)
	}
	w.listener = l
	w.done = make(chan struct{})
	w.mu.Unlock()
	go w.acceptLoop(l, w.done)
	return nil
}

func (w *Worker) acceptLoop(l net.Listener, done chan struct{}) {
	defer close(done)
	var conns sync.WaitGroup
	for {
		conn, err := l.Accept()
		if err != nil {
			// Listener closed: drain connections and exit.
			conns.Wait()
			return
		}
		conns.Add(1)
		go func() {
			defer conns.Done()
			defer conn.Close()
			w.handle(conn)
		}()
	}
}

// track registers a live connection so Close can unblock its handler;
// it reports false when the worker is already closed.
func (w *Worker) track(conn net.Conn) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	if w.conns == nil {
		w.conns = make(map[net.Conn]struct{})
	}
	w.conns[conn] = struct{}{}
	return true
}

func (w *Worker) untrack(conn net.Conn) {
	w.mu.Lock()
	delete(w.conns, conn)
	w.mu.Unlock()
}

// handle speaks the protocol on one controller connection, which outlives
// any one run: a controller ends a run with MsgCancel, not a hangup, and
// sends the next run's assigns on the same connection.
func (w *Worker) handle(conn net.Conn) {
	if !w.track(conn) {
		return
	}
	defer w.untrack(conn)
	// Heartbeats and completions share the stream; wm serializes frames.
	var wm sync.Mutex
	hello := &Envelope{
		Type:         MsgHello,
		WorkerID:     w.ID,
		NodeType:     w.Type.String(),
		SecPerBit:    w.Type.SecPerBit(),
		TimeScale:    w.TimeScale,
		HeartbeatSec: w.HeartbeatEvery.Seconds(),
	}
	if err := WriteFrame(conn, hello); err != nil {
		return
	}
	if w.HeartbeatEvery > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			ticker := time.NewTicker(w.HeartbeatEvery)
			defer ticker.Stop()
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
					wm.Lock()
					err := WriteFrame(conn, &Envelope{Type: MsgHeartbeat, WorkerID: w.ID})
					wm.Unlock()
					if err != nil {
						return
					}
				}
			}
		}()
	}
	// The reader runs beside the executing task, so a hangup or a cancel
	// stops the task mid-execution: an abandoned task never runs alongside
	// the controller's next plan. Assigns that arrive mid-task queue behind
	// it, so the reader stays free; a controller keeps one task in flight
	// plus an occasional re-send, so 16 never fills. Each queued frame
	// carries the stop channel current when it was read, and a cancel
	// closes it: the task executing stops, the assigns queued ahead of the
	// cancel are dropped, and the cancel's echo is the last frame of the run
	// it ends. Each frame also carries its arrival instant: the node rule
	// below starts a task from when it arrived, not from when the loop got
	// to it.
	type job struct {
		env  *Envelope
		stop chan struct{}
		at   time.Time
	}
	in := make(chan job, 16)
	hangup, quit := make(chan struct{}), make(chan struct{})
	defer func() {
		close(quit)
		conn.Close() // unblocks the reader if the executor quit first
		<-hangup
	}()
	go func() {
		defer close(hangup)
		stop := make(chan struct{})
		for {
			env, err := ReadFrame(conn)
			if err != nil {
				if StreamAligned(err) {
					// A frame corrupted in flight: whatever it carried is
					// lost, but the stream is intact. The controller's
					// deadline/hedging machinery recovers the lost work;
					// dropping the connection here would turn one flipped
					// bit into a dead worker.
					continue
				}
				return // EOF, broken pipe, or framing lost
			}
			at := time.Now()
			switch env.Type {
			case MsgAssign:
			case MsgCancel:
				close(stop)
				stop = make(chan struct{})
			default:
				return // a protocol violation: drop the connection
			}
			select {
			case in <- job{env, stop, at}:
			case <-quit:
				return
			}
		}
	}()
	// The model clock is edgesim's node rule: a task starts at
	// max(arrival, free) and ends its duration later, where free is when
	// the previous task was scheduled to end. Lateness in waking or in
	// writing a done frame therefore never adds up along a queue. A cancel
	// and a stopped task reset free, so nothing of a cancelled run's
	// schedule carries into the next run.
	var free time.Time
	for {
		var j job
		select {
		case j = <-in:
		case <-hangup:
			return
		}
		reply := &Envelope{Type: MsgCancel, WorkerID: w.ID} // the echo, unless a task completes
		if j.env.Type == MsgAssign {
			select {
			case <-j.stop:
				continue // queued ahead of a cancel: dropped
			default:
			}
			start := j.at
			if start.Before(free) {
				start = free
			}
			end := start.Add(w.taskTime(j.env.InputBits))
			if !sleepUntil(end, hangup, j.stop) {
				free = time.Time{}
				continue // cancelled, or hung up: the loop's select tells
			}
			free = end
			reply.Type, reply.TaskID, reply.Importance = MsgDone, j.env.TaskID, j.env.Importance
			reply.ElapsedMicros = end.Sub(start).Microseconds()
		} else {
			free = time.Time{}
		}
		wm.Lock()
		err := WriteFrame(conn, reply)
		wm.Unlock()
		if err != nil {
			return
		}
	}
}

// taskTime is the task's simulated computation time,
// InputBits × SecPerBit × TimeScale.
func (w *Worker) taskTime(inputBits float64) time.Duration {
	return seconds(inputBits * w.Type.SecPerBit() * w.TimeScale)
}

// seconds converts s seconds to a Duration, saturating instead of wrapping:
// a negative s is 0, and one beyond the largest Duration (or NaN) is the
// largest Duration, about 292 years.
func seconds(s float64) time.Duration {
	d := s * float64(time.Second)
	switch {
	case d <= 0:
		return 0
	case !(d < math.MaxInt64):
		return math.MaxInt64
	}
	return time.Duration(d)
}

// Close stops accepting connections, closes live protocol connections
// (unblocking any handler stuck on a stalled peer), and waits for all
// handlers — accepted and rejoined. It is idempotent.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	l, done := w.listener, w.done
	for conn := range w.conns {
		conn.Close()
	}
	w.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
		<-done
	}
	w.handlers.Wait()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("edgenet worker close: %w", err)
	}
	return nil
}

// Addr returns the listener address ("" before Serve).
func (w *Worker) Addr() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.listener == nil {
		return ""
	}
	return w.listener.Addr().String()
}
