package edgenet

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame throws arbitrary bytes at the frame decoder. The decoder
// sits directly on the network, so it must never panic, never allocate an
// unbounded frame, and must honour the alignment contract: an aligned error
// (checksum, validation) means the whole frame was consumed and the stream
// is still readable.
func FuzzDecodeFrame(f *testing.F) {
	// Seed corpus: valid frames in both directions (a cancel goes both
	// ways), plus the classic corruptions.
	var buf bytes.Buffer
	WriteFrame(&buf, &Envelope{Type: MsgAssign, TaskID: 3, InputBits: 1000, Importance: 0.5}) //nolint:errcheck
	f.Add(append([]byte(nil), buf.Bytes()...))
	flipped := append([]byte(nil), buf.Bytes()...)
	flipped[len(flipped)-2] ^= 0xFF // stale CRC
	f.Add(flipped)
	buf.Reset()
	WriteFrame(&buf, &Envelope{Type: MsgDone, TaskID: 1, WorkerID: 7}) //nolint:errcheck
	f.Add(append([]byte(nil), buf.Bytes()...))
	f.Add(append([]byte(nil), buf.Bytes()[:frameHeader-2]...)) // truncated header
	f.Add([]byte{frameMagic0, frameMagic1, 9, 0, 0, 0, 0})     // future version
	f.Add([]byte{frameMagic0, 'x', frameVersion, 0, 0, 0, 0})  // bad magic
	f.Add(rawFrame(2, []byte("{}")))                           // typeless
	f.Add(rawFrame(0xFFFFFFFF, nil))                           // oversized
	// A run's cancel, or its echo.
	buf.Reset()
	WriteFrame(&buf, &Envelope{Type: MsgCancel, WorkerID: 7}) //nolint:errcheck
	f.Add(append([]byte(nil), buf.Bytes()...))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		env, err := ReadFrame(r)
		if err == nil {
			// Whatever decoded must be re-encodable and validated.
			if env.Type == "" {
				t.Fatal("decoded envelope with empty type")
			}
			if verr := env.Validate(); verr != nil {
				t.Fatalf("decoded envelope fails validation: %v", verr)
			}
			return
		}
		if StreamAligned(err) {
			// Alignment contract: the erroneous frame was fully consumed, so
			// a frame appended after it must decode cleanly.
			follow := &Envelope{Type: MsgHeartbeat, WorkerID: 1}
			var rest bytes.Buffer
			if werr := WriteFrame(&rest, follow); werr != nil {
				t.Fatal(werr)
			}
			consumed := len(data) - r.Len()
			stream := bytes.NewBuffer(append(append([]byte(nil), data[consumed:]...), rest.Bytes()...))
			// Skip whatever tail garbage remains, reading frame by frame; the
			// appended frame must eventually surface unless framing is lost.
			for {
				got, rerr := ReadFrame(stream)
				if rerr == nil && got.Type == MsgHeartbeat && got.WorkerID == 1 {
					return
				}
				if rerr != nil && !StreamAligned(rerr) {
					return // framing lost in the garbage tail: also a valid outcome
				}
			}
		}
	})
}

// FuzzDecodeRawFrame checks the lower layer never over-reads: the raw frame
// returned must be exactly the bytes consumed from the stream.
func FuzzDecodeRawFrame(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, &Envelope{Type: MsgHello, WorkerID: 2, SecPerBit: 1e-7}) //nolint:errcheck
	f.Add(append([]byte(nil), buf.Bytes()...))
	f.Add(rawFrame(5, []byte("hello")))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		frame, err := ReadRawFrame(r)
		if err != nil {
			return
		}
		if len(frame) < frameHeader || frame[0] != frameMagic0 || frame[1] != frameMagic1 || frame[2] != frameVersion {
			t.Fatalf("frame %x does not open with the header", frame)
		}
		if len(frame) > MaxFrameBytes+frameHeader {
			t.Fatalf("frame of %d bytes exceeds the bound", len(frame))
		}
		if consumed := len(data) - r.Len(); consumed != len(frame) {
			t.Fatalf("consumed %d bytes but returned a %d-byte frame", consumed, len(frame))
		}
	})
}
