// Package edgenet is a runnable network implementation of the paper's edge
// system (Fig. 8): a controller that keeps a standing TCP session to each
// worker node, streams task assignments over it in allocation-priority
// order, and declares the industry decision ready once the completed tasks
// cover the importance target — the same PT semantics as internal/edgesim,
// but over real sockets with real goroutines, timeouts and graceful
// shutdown.
//
// Every frame is
//
//	0xED 'g' 0x02 | uint32 payload length | uint32 CRC32-C | JSON payload
//
// (all integers big-endian). The CRC covers the payload, so a flipped bit
// anywhere in the JSON is detected by the receiver without losing stream
// alignment — the frame is consumed, reported as ErrChecksum, and the next
// frame reads cleanly. A header that does not open with the magic and
// version loses framing: the receiver drops the connection.
//
// Workers simulate task execution on edgesim's node clock: a task ends
// InputBits × SecPerBit × TimeScale after it arrived or after the previous
// task ended, whichever is later, so a demo runs in milliseconds while
// preserving the relative timing structure.
package edgenet

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Common errors.
var (
	// ErrFrameTooLarge guards against corrupt or hostile length prefixes.
	// The stream cannot be resynchronized after it.
	ErrFrameTooLarge = errors.New("edgenet: frame too large")
	// ErrBadMessage is returned for messages that fail validation. The
	// offending frame was fully consumed: the stream stays aligned.
	ErrBadMessage = errors.New("edgenet: invalid message")
	// ErrChecksum is returned when a frame's payload fails its CRC —
	// the bytes were corrupted in flight. The frame was fully consumed:
	// the stream stays aligned and the next ReadFrame is safe.
	ErrChecksum = errors.New("edgenet: frame checksum mismatch")
	// ErrNonFinite is returned when a message carries NaN or ±Inf in a
	// numeric field; non-finite numbers would silently poison deadline and
	// coverage arithmetic downstream.
	ErrNonFinite = errors.New("edgenet: non-finite number")
)

// MaxFrameBytes bounds a single protocol frame.
const MaxFrameBytes = 1 << 20

// Frame constants.
const (
	frameMagic0  = 0xED
	frameMagic1  = 'g'
	frameVersion = 2
	// frameHeader is magic(2) + version(1) + length(4) + crc(4).
	frameHeader = 11
)

// frameCRC is CRC32-Castagnoli, hardware-accelerated on amd64/arm64.
var frameCRC = crc32.MakeTable(crc32.Castagnoli)

// MsgType discriminates protocol messages.
type MsgType string

// Protocol message types.
const (
	// MsgHello is the worker's greeting after accepting a connection.
	MsgHello MsgType = "hello"
	// MsgAssign carries one task assignment, controller → worker.
	MsgAssign MsgType = "assign"
	// MsgDone reports one task completion, worker → controller.
	MsgDone MsgType = "done"
	// MsgHeartbeat is the worker's periodic liveness beacon, worker →
	// controller, interleaved with completions on the same stream.
	MsgHeartbeat MsgType = "beat"
	// MsgCancel ends a run without ending the connection, controller →
	// worker: the worker stops its in-flight task, drops the assigns queued
	// behind it and echoes MsgCancel back, worker → controller. Every frame
	// the worker sent before the echo belongs to the run that ended.
	MsgCancel MsgType = "cancel"
)

// Envelope is the wire representation of every message.
type Envelope struct {
	Type MsgType `json:"type"`
	// Hello fields.
	WorkerID  int     `json:"workerId,omitempty"`
	NodeType  string  `json:"nodeType,omitempty"`
	SecPerBit float64 `json:"secPerBit,omitempty"`
	// TimeScale is the worker's execution time scale; with SecPerBit it
	// lets the controller derive per-task completion deadlines.
	TimeScale float64 `json:"timeScale,omitempty"`
	// HeartbeatSec announces the worker's heartbeat cadence in seconds;
	// 0 means the worker sends no heartbeats.
	HeartbeatSec float64 `json:"heartbeatSec,omitempty"`
	// Assign/Done fields.
	TaskID     int     `json:"taskId,omitempty"`
	InputBits  float64 `json:"inputBits,omitempty"`
	Importance float64 `json:"importance,omitempty"`
	// Done fields. ElapsedMicros is the task's modelled execution time:
	// its end minus its start on the worker's model clock.
	ElapsedMicros int64 `json:"elapsedMicros,omitempty"`
}

// Validate rejects envelopes that would poison downstream arithmetic: every
// numeric field must be finite. Both WriteFrame and ReadFrame call it, so
// non-finite numbers are stopped at the trust boundary in either direction.
func (env *Envelope) Validate() error {
	if env.Type == "" {
		return fmt.Errorf("missing type: %w", ErrBadMessage)
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"secPerBit", env.SecPerBit},
		{"timeScale", env.TimeScale},
		{"heartbeatSec", env.HeartbeatSec},
		{"inputBits", env.InputBits},
		{"importance", env.Importance},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s = %v: %w: %w", f.name, f.v, ErrBadMessage, ErrNonFinite)
		}
	}
	return nil
}

// WriteFrame serializes one envelope as a checksummed frame.
func WriteFrame(w io.Writer, env *Envelope) error {
	if err := env.Validate(); err != nil {
		return fmt.Errorf("edgenet write: %w", err)
	}
	payload, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("edgenet marshal: %w", err)
	}
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("%d bytes: %w", len(payload), ErrFrameTooLarge)
	}
	frame := make([]byte, frameHeader+len(payload))
	frame[0], frame[1], frame[2] = frameMagic0, frameMagic1, frameVersion
	binary.BigEndian.PutUint32(frame[3:7], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[7:11], crc32.Checksum(payload, frameCRC))
	copy(frame[frameHeader:], payload)
	// One Write keeps header+payload in a single TCP segment when possible.
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("edgenet write frame: %w", err)
	}
	return nil
}

// ReadRawFrame reads one whole frame and returns its raw wire bytes, header
// included. It checks the magic, version and length bound but neither the
// checksum nor the content; the fault-injection proxy uses it to relay (and
// corrupt) frames byte-exactly.
func ReadRawFrame(r io.Reader) ([]byte, error) {
	head := make([]byte, frameHeader)
	if _, err := io.ReadFull(r, head); err != nil {
		if err == io.EOF {
			return nil, err // a clean hangup between frames
		}
		return nil, fmt.Errorf("edgenet read header: %w", err)
	}
	if head[0] != frameMagic0 || head[1] != frameMagic1 {
		return nil, fmt.Errorf("edgenet: bad frame magic 0x%02x%02x", head[0], head[1])
	}
	if head[2] != frameVersion {
		return nil, fmt.Errorf("edgenet: unsupported frame version %d", head[2])
	}
	n := binary.BigEndian.Uint32(head[3:7])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%d bytes: %w", n, ErrFrameTooLarge)
	}
	frame := make([]byte, frameHeader+int(n))
	copy(frame, head)
	if _, err := io.ReadFull(r, frame[frameHeader:]); err != nil {
		return nil, fmt.Errorf("edgenet read payload: %w", err)
	}
	return frame, nil
}

// ReadFrame reads one frame and decodes its envelope.
//
// Error contract for failure handling upstream: ErrChecksum and
// ErrBadMessage mean the offending frame was fully consumed and the stream
// is still aligned — the caller may keep reading (and count the corruption).
// Every other error means framing itself is lost and the connection must be
// dropped. StreamAligned reports which side of the contract an error is on.
func ReadFrame(r io.Reader) (*Envelope, error) {
	frame, err := ReadRawFrame(r)
	if err != nil {
		return nil, err
	}
	payload := frame[frameHeader:]
	want := binary.BigEndian.Uint32(frame[7:11])
	if got := crc32.Checksum(payload, frameCRC); got != want {
		return nil, fmt.Errorf("crc 0x%08x, want 0x%08x: %w", got, want, ErrChecksum)
	}
	var env Envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		// The frame was fully consumed (its length prefix was plausible),
		// so the stream stays aligned.
		return nil, fmt.Errorf("edgenet unmarshal: %v: %w", err, ErrBadMessage)
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	return &env, nil
}

// StreamAligned reports whether err (from ReadFrame) left the stream
// aligned on a frame boundary, i.e. whether it is safe to keep reading from
// the same connection.
func StreamAligned(err error) bool {
	return errors.Is(err, ErrChecksum) || errors.Is(err, ErrBadMessage)
}
