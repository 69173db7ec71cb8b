package edgenet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/edgesim"
)

func TestChecksumCorruptionKeepsStreamAligned(t *testing.T) {
	var buf bytes.Buffer
	first := &Envelope{Type: MsgDone, TaskID: 1}
	second := &Envelope{Type: MsgDone, TaskID: 2}
	if err := WriteFrame(&buf, first); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the first frame, leaving its CRC stale.
	wire := buf.Bytes()
	wire[frameHeader+len(wire[frameHeader:])/2] ^= 0xFF
	if err := WriteFrame(&buf, second); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFrame(&buf)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted frame err = %v, want ErrChecksum", err)
	}
	if !StreamAligned(err) {
		t.Fatalf("checksum error should leave the stream aligned: %v", err)
	}
	// The stream stays aligned: the next frame reads cleanly.
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if *out != *second {
		t.Fatalf("frame after corruption = %+v, want %+v", out, second)
	}
}

func TestStreamAlignedClassification(t *testing.T) {
	if !StreamAligned(ErrChecksum) || !StreamAligned(ErrBadMessage) {
		t.Fatal("checksum/validation failures must be survivable")
	}
	if StreamAligned(io.EOF) || StreamAligned(ErrFrameTooLarge) || StreamAligned(nil) {
		t.Fatal("framing loss must not be survivable")
	}
}

// TestReadRawFrameOffsets: a raw frame is the exact wire bytes, and its
// JSON payload starts right after the fixed header.
func TestReadRawFrameOffsets(t *testing.T) {
	var buf bytes.Buffer
	env := &Envelope{Type: MsgHeartbeat, WorkerID: 5}
	if err := WriteFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), buf.Bytes()...)
	frame, err := ReadRawFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, wire) {
		t.Fatalf("raw frame %x, wire %x", frame, wire)
	}
	var out Envelope
	if err := json.Unmarshal(frame[frameHeader:], &out); err != nil || out != *env {
		t.Fatalf("payload after the header = %+v (%v), want %+v", out, err, *env)
	}
}

func TestEnvelopeRejectsNonFinite(t *testing.T) {
	cases := []Envelope{
		{Type: MsgAssign, InputBits: math.NaN()},
		{Type: MsgAssign, InputBits: math.Inf(1)},
		{Type: MsgHello, SecPerBit: math.NaN()},
		{Type: MsgHello, TimeScale: math.Inf(-1)},
		{Type: MsgHello, HeartbeatSec: math.NaN()},
		{Type: MsgDone, Importance: math.Inf(1)},
	}
	for _, env := range cases {
		if err := env.Validate(); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("Validate(%+v) = %v, want ErrNonFinite", env, err)
		}
		if err := WriteFrame(io.Discard, &env); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("WriteFrame(%+v) = %v, want ErrNonFinite", env, err)
		}
	}
	ok := Envelope{Type: MsgAssign, InputBits: 1000, Importance: 0.5}
	if err := ok.Validate(); err != nil {
		t.Fatalf("finite envelope rejected: %v", err)
	}
}

// TestHeartbeatsInterleaveStrictRun: a worker beats on the same stream as
// its completions, while its tasks execute; Run must take the beats as
// liveness, not as completions or corrupt frames.
func TestHeartbeatsInterleaveStrictRun(t *testing.T) {
	w := &Worker{
		ID:             1,
		Type:           edgesim.RaspberryPiB,
		TimeScale:      taskScale(20 * time.Millisecond),
		HeartbeatEvery: 2 * time.Millisecond,
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Serve(l); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })

	p, res := testPlan(3, 1)
	ctrl := NewController()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	report, err := ctrl.Run(ctx, []string{w.Addr()}, p, res, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Completions) != 3 {
		t.Fatalf("completions = %d, want 3", len(report.Completions))
	}
	if report.CorruptFrames != 0 || report.DeadWorkers != 0 || report.DuplicateDone != 0 {
		t.Fatalf("beats miscounted: corrupt %d, dead %d, duplicates %d",
			report.CorruptFrames, report.DeadWorkers, report.DuplicateDone)
	}
}

// latePeer is a worker that announces a 2 ms heartbeat cadence but whose
// beats leave its host every 8 ms, as a loaded host delivers a fine ticker:
// in bursts, or late. It completes each assigned task 40 ms after the
// assign arrives.
func latePeer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	t.Cleanup(func() {
		close(stop)
		l.Close()
	})
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var wm sync.Mutex
		write := func(env *Envelope) error {
			wm.Lock()
			defer wm.Unlock()
			return WriteFrame(conn, env)
		}
		if write(&Envelope{Type: MsgHello, WorkerID: 1, NodeType: edgesim.RaspberryPiB.String(),
			SecPerBit: edgesim.RaspberryPiB.SecPerBit(), TimeScale: taskScale(40 * time.Millisecond),
			HeartbeatSec: 0.002}) != nil {
			return
		}
		go func() {
			ticker := time.NewTicker(8 * time.Millisecond)
			defer ticker.Stop()
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
					if write(&Envelope{Type: MsgHeartbeat, WorkerID: 1}) != nil {
						return
					}
				}
			}
		}()
		for {
			env, err := ReadFrame(conn)
			if err != nil {
				return
			}
			time.Sleep(40 * time.Millisecond)
			if write(&Envelope{Type: MsgDone, WorkerID: 1, TaskID: env.TaskID, Importance: env.Importance}) != nil {
				return
			}
		}
	}()
	return l.Addr().String()
}

// TestLivenessFloorFineCadence: a worker whose announced cadence (2 ms) is
// finer than the controller's scan (Tick, 10 ms) is judged at the scan's
// resolution. At the default K its beats, 8 ms apart, keep it alive through
// a 120 ms run; judged by its own cadence, K windows of 2 ms would declare
// it dead between two of them.
func TestLivenessFloorFineCadence(t *testing.T) {
	p, res := testPlan(3, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	report, err := NewController().Run(ctx, []string{latePeer(t)}, p, res, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Completions) != 3 || report.DeadWorkers != 0 {
		t.Fatalf("%d completions, %d dead workers (%d missed windows); want 3 and 0",
			len(report.Completions), report.DeadWorkers, report.HeartbeatMisses)
	}
}

// TestLivenessFloorLateScan calls scan at synthetic instants on a worker
// with a 2 ms cadence that never beats (Tick 10 ms, K = 3). On-time scans
// declare it dead at the third window; one scan that runs more than a Tick
// late counts none of its gap as silence, and the on-time scans after it
// resume the count where it stood.
func TestLivenessFloorLateScan(t *testing.T) {
	t0 := time.Unix(0, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	newRun := func() (*ftRun, *ftWorker) {
		conn, peer := net.Pipe()
		t.Cleanup(func() { peer.Close() })
		w := &ftWorker{alive: true, busy: -1, beatEvery: 2 * time.Millisecond, lastBeat: t0,
			s: &session{conn: conn, quit: make(chan struct{})}}
		r := &ftRun{c: &Controller{}, report: &Report{}, scanned: t0, workers: []*ftWorker{w}, live: 1}
		return r, w
	}

	r, w := newRun()
	for _, at := range []int{10, 20} {
		r.scan(ms(at))
		if !w.alive {
			t.Fatalf("on-time scans: dead at %d ms, before K windows", at)
		}
	}
	r.scan(ms(30))
	if w.alive {
		t.Fatal("on-time scans: alive after K windows with no beat")
	}

	r, w = newRun()
	r.scan(ms(10))
	r.scan(ms(60)) // 40 ms late
	if !w.alive || w.misses != 1 {
		t.Fatalf("after a late scan: alive %v with %d missed windows; want alive with 1", w.alive, w.misses)
	}
	r.scan(ms(70))
	if !w.alive {
		t.Fatal("dead at the first on-time scan after a late one, with two windows counted")
	}
	r.scan(ms(80))
	if w.alive {
		t.Fatal("alive after K counted windows with no beat")
	}
}
