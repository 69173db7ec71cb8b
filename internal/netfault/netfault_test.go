package netfault

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/edgenet"
)

// echoBackend is a minimal worker-side peer: it sends a hello, then answers
// every assign with a done.
func echoBackend(t *testing.T) string {
	t.Helper()
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
			go func() {
				defer conn.Close()
				if err := edgenet.WriteFrame(conn, &edgenet.Envelope{Type: edgenet.MsgHello, WorkerID: 1}); err != nil {
					return
				}
				for {
					env, err := edgenet.ReadFrame(conn)
					if err != nil {
						return
					}
					if env.Type != edgenet.MsgAssign {
						return
					}
					done := &edgenet.Envelope{Type: edgenet.MsgDone, WorkerID: 1, TaskID: env.TaskID}
					if err := edgenet.WriteFrame(conn, done); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

func dialProxy(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestProxyRelaysBothDirections(t *testing.T) {
	p, err := New(echoBackend(t), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	conn := dialProxy(t, p)

	hello, err := edgenet.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if hello.Type != edgenet.MsgHello || hello.WorkerID != 1 {
		t.Fatalf("hello = %+v", hello)
	}
	// Upstream direction: the assign must reach the backend verbatim.
	if err := edgenet.WriteFrame(conn, &edgenet.Envelope{Type: edgenet.MsgAssign, TaskID: 7}); err != nil {
		t.Fatal(err)
	}
	done, err := edgenet.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if done.Type != edgenet.MsgDone || done.TaskID != 7 {
		t.Fatalf("done = %+v", done)
	}
	if c := p.Counts(); c.Forwarded != 2 || c.Corrupted+c.Delayed+c.Hung+c.Dropped != 0 {
		t.Fatalf("ledger = %+v, want 2 clean forwards", c)
	}
}

func TestProxyCorruptIsDetectableAndAligned(t *testing.T) {
	p, err := New(echoBackend(t), func(i int, env *edgenet.Envelope) Action {
		if env != nil && env.Type == edgenet.MsgDone && env.TaskID == 1 {
			return Corrupt
		}
		return Pass
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	conn := dialProxy(t, p)
	if _, err := edgenet.ReadFrame(conn); err != nil { // hello
		t.Fatal(err)
	}
	for task := 0; task < 3; task++ {
		if err := edgenet.WriteFrame(conn, &edgenet.Envelope{Type: edgenet.MsgAssign, TaskID: task}); err != nil {
			t.Fatal(err)
		}
		env, err := edgenet.ReadFrame(conn)
		if task == 1 {
			if !errors.Is(err, edgenet.ErrChecksum) || !edgenet.StreamAligned(err) {
				t.Fatalf("corrupted done err = %v, want aligned ErrChecksum", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if env.TaskID != task {
			t.Fatalf("done for task %d = %+v", task, env)
		}
	}
	if c := p.Counts(); c.Corrupted != 1 || c.Forwarded != 3 { // hello + 2 clean dones
		t.Fatalf("ledger = %+v, want 1 corruption and 3 forwards", c)
	}
}

func TestProxyDelayAndDrop(t *testing.T) {
	p, err := New(echoBackend(t), func(i int, env *edgenet.Envelope) Action {
		if env == nil || env.Type != edgenet.MsgDone {
			return Pass
		}
		if env.TaskID == 0 {
			return Delay
		}
		return Drop
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	p.SetDelay(150 * time.Millisecond)
	conn := dialProxy(t, p)
	if _, err := edgenet.ReadFrame(conn); err != nil { // hello
		t.Fatal(err)
	}
	start := time.Now()
	if err := edgenet.WriteFrame(conn, &edgenet.Envelope{Type: edgenet.MsgAssign, TaskID: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := edgenet.ReadFrame(conn); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("delayed frame arrived after %v, want >= 100ms", elapsed)
	}
	// The next done is dropped with the connection: a crash-stop failure.
	if err := edgenet.WriteFrame(conn, &edgenet.Envelope{Type: edgenet.MsgAssign, TaskID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := edgenet.ReadFrame(conn); err == nil || edgenet.StreamAligned(err) {
		t.Fatalf("dropped connection read err = %v, want terminal error", err)
	}
	if c := p.Counts(); c.Delayed != 1 || c.Dropped != 1 {
		t.Fatalf("ledger = %+v, want 1 delay and 1 drop", c)
	}
}

func TestProxyHangStallsUntilClose(t *testing.T) {
	events := make(chan Action, 4)
	p, err := New(echoBackend(t), func(i int, env *edgenet.Envelope) Action {
		if env != nil && env.Type == edgenet.MsgDone {
			return Hang
		}
		return Pass
	}, func(a Action) { events <- a })
	if err != nil {
		t.Fatal(err)
	}
	conn := dialProxy(t, p)
	if _, err := edgenet.ReadFrame(conn); err != nil { // hello
		t.Fatal(err)
	}
	if err := edgenet.WriteFrame(conn, &edgenet.Envelope{Type: edgenet.MsgAssign, TaskID: 0}); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-events:
		if a != Hang {
			t.Fatalf("event = %v, want Hang", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hang never injected")
	}
	// The connection stays open but silent — exactly a hung node.
	conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond)) //nolint:errcheck
	if _, err := edgenet.ReadFrame(conn); err == nil {
		t.Fatal("read succeeded through a hung proxy")
	}
	if c := p.Counts(); c.Hung != 1 {
		t.Fatalf("ledger = %+v, want 1 hang", c)
	}
	// Close unblocks the frozen relay.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestProxyRelaysCancelEcho: a real worker's echo of a run's cancel is an
// ordinary worker→controller frame to the proxy, relayed and counted as
// one more Forwarded frame, so the chaos suites' ledgers, which count only
// the faults their deciders inject on done frames, do not move.
func TestProxyRelaysCancelEcho(t *testing.T) {
	w := &edgenet.Worker{ID: 3}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Serve(l); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	p, err := New(w.Addr(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	conn := dialProxy(t, p)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	for _, step := range []struct {
		send *edgenet.Envelope // nil: only read
		want edgenet.MsgType
	}{
		{nil, edgenet.MsgHello},
		{&edgenet.Envelope{Type: edgenet.MsgAssign, TaskID: 1}, edgenet.MsgDone},
		{&edgenet.Envelope{Type: edgenet.MsgCancel}, edgenet.MsgCancel},
	} {
		if step.send != nil {
			if err := edgenet.WriteFrame(conn, step.send); err != nil {
				t.Fatal(err)
			}
		}
		env, err := edgenet.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if env.Type != step.want {
			t.Fatalf("frame = %q, want %q", env.Type, step.want)
		}
	}
	if c := p.Counts(); c.Forwarded != 3 || c.Corrupted+c.Delayed+c.Hung+c.Dropped != 0 {
		t.Fatalf("ledger = %+v, want the hello, the done and the echo forwarded", c)
	}
}
