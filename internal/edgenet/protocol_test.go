package edgenet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/edgesim"
)

func TestLegacyFrameRoundTrip(t *testing.T) {
	// A v1 writer and a v2 writer can share one stream: ReadFrame sniffs
	// each frame's format from its first byte.
	var buf bytes.Buffer
	legacy := &Envelope{Type: MsgDone, TaskID: 3, WorkerID: 9}
	modern := &Envelope{Type: MsgAssign, TaskID: 4, InputBits: 1000}
	if err := WriteFrameLegacy(&buf, legacy); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, modern); err != nil {
		t.Fatal(err)
	}
	out1, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if *out1 != *legacy || *out2 != *modern {
		t.Fatalf("mixed-format stream: %+v / %+v", out1, out2)
	}
}

func TestChecksumCorruptionKeepsStreamAligned(t *testing.T) {
	var buf bytes.Buffer
	first := &Envelope{Type: MsgDone, TaskID: 1}
	second := &Envelope{Type: MsgDone, TaskID: 2}
	if err := WriteFrame(&buf, first); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the first frame, leaving its CRC stale.
	wire := buf.Bytes()
	wire[v2Header+len(wire[v2Header:])/2] ^= 0xFF
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

func TestReadRawFrameOffsets(t *testing.T) {
	var buf bytes.Buffer
	env := &Envelope{Type: MsgHeartbeat, WorkerID: 5}
	if err := WriteFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), buf.Bytes()...)
	frame, off, err := ReadRawFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if off != v2Header || !bytes.Equal(frame, wire) {
		t.Fatalf("v2 raw frame off=%d, bytes preserved=%v", off, bytes.Equal(frame, wire))
	}
	buf.Reset()
	if err := WriteFrameLegacy(&buf, env); err != nil {
		t.Fatal(err)
	}
	wire = append([]byte(nil), buf.Bytes()...)
	frame, off, err = ReadRawFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if off != v1Header || !bytes.Equal(frame, wire) {
		t.Fatalf("v1 raw frame off=%d, bytes preserved=%v", off, bytes.Equal(frame, wire))
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

// TestHeartbeatsInterleaveStrictRun: a v2 worker beats on the same stream
// as its completions; the strict Run path must skip the beats rather than
// treat them as protocol violations.
func TestHeartbeatsInterleaveStrictRun(t *testing.T) {
	w := &Worker{ID: 1, Type: edgesim.RaspberryPiB, HeartbeatEvery: 2 * time.Millisecond}
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
}

// TestLegacyWorkerCompat: a pre-v2 node that still writes bare
// length-prefixed frames interoperates with a v2 controller — rolling
// upgrades must not need a flag day.
func TestLegacyWorkerCompat(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if err := WriteFrameLegacy(conn, &Envelope{Type: MsgHello, WorkerID: 42}); err != nil {
			return
		}
		for {
			env, err := ReadFrame(conn) // sniffing reader: accepts the v2 assigns
			if err != nil {
				return
			}
			switch env.Type {
			case MsgAssign:
				done := &Envelope{Type: MsgDone, WorkerID: 42, TaskID: env.TaskID}
				if err := WriteFrameLegacy(conn, done); err != nil {
					return
				}
			case MsgShutdown:
				return
			}
		}
	}()

	p, res := testPlan(3, 1)
	ctrl := NewController()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	report, err := ctrl.Run(ctx, []string{l.Addr().String()}, p, res, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Completions) != 3 {
		t.Fatalf("completions = %d, want 3", len(report.Completions))
	}
	if report.Workers[0] != 42 {
		t.Fatalf("legacy hello not honoured: %v", report.Workers)
	}
}
