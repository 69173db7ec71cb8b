package edgenet

import (
	"context"
	"net"
	"slices"
	"sync"
	"time"
)

// session is one greeted worker connection. It outlives the Run that
// dialed it, waiting in the fleet between runs, and owns the hello, one
// reader, which stamps each frame's arrival and hands it to the attached
// run (or drops it while pooled), and one writer.
type session struct {
	addr  string
	conn  net.Conn
	hello *Envelope
	out   chan *Envelope // to the writer; a run queues one assign at a time, plus re-sends and a cancel
	quit  chan struct{}  // closed by close
	once  sync.Once

	mu  sync.Mutex
	run *ftRun // the attached run; nil while pooled
	w   *ftWorker
}

func startSession(addr string, conn net.Conn, hello *Envelope) *session {
	s := &session{addr: addr, conn: conn, hello: hello, out: make(chan *Envelope, 64), quit: make(chan struct{})}
	go s.readLoop()
	go s.writeLoop()
	return s
}

// readLoop turns frames into events. Aligned decode failures (checksum,
// validation), and well-formed frames a worker never sends, count as
// corruption; any other error ends the session.
func (s *session) readLoop() {
	for {
		env, err := ReadFrame(s.conn)
		ev := ftEvent{kind: evCorrupt, env: env, at: time.Now()}
		switch {
		case err != nil && !StreamAligned(err):
			s.close()
			ev.kind = evGone
		case err != nil:
		case env.Type == MsgDone:
			ev.kind = evDone
		case env.Type == MsgHeartbeat:
			ev.kind = evBeat
		case env.Type == MsgCancel:
			ev.kind = evEcho
		}
		s.mu.Lock()
		r, w := s.run, s.w
		s.mu.Unlock()
		if r != nil {
			ev.w = w
			r.send(ev)
		}
		if ev.kind == evGone {
			drop(s)
			return
		}
	}
}

func (s *session) writeLoop() {
	for {
		select {
		case env := <-s.out:
			if WriteFrame(s.conn, env) != nil {
				s.conn.Close() // the reader then ends the session
				return
			}
		case <-s.quit:
			return
		}
	}
}

// send queues a frame for the writer; false means the writer is gone.
func (s *session) send(env *Envelope) bool {
	select {
	case s.out <- env:
		return true
	default:
		return false
	}
}

func (s *session) close() {
	s.once.Do(func() {
		close(s.quit)
		s.conn.Close()
	})
}

func (s *session) closed() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

// fleet holds the idle sessions of every worker address, and counts the
// greetings Runs gave up on that still wait for their hello. One fleet
// serves the process, as http.DefaultTransport does, since callers build a
// Controller per plan. A session leaves it when its reader ends.
var fleet = struct {
	mu   sync.Mutex
	idle map[string][]*session
	mute map[string]int
}{idle: map[string][]*session{}, mute: map[string]int{}}

// take returns an idle session for addr, or nil and whether a greeting of
// addr that an earlier Run gave up on still waits for its hello.
func take(addr string) (*session, bool) {
	fleet.mu.Lock()
	defer fleet.mu.Unlock()
	for q := fleet.idle[addr]; len(q) > 0; {
		s := q[len(q)-1]
		q = q[:len(q)-1]
		fleet.idle[addr] = q
		if !s.closed() {
			return s, false
		}
	}
	delete(fleet.idle, addr)
	return nil, fleet.mute[addr] > 0
}

// drop removes a session whose reader has ended from the idle sessions.
func drop(s *session) {
	fleet.mu.Lock()
	defer fleet.mu.Unlock()
	if q := slices.DeleteFunc(fleet.idle[s.addr], func(v *session) bool { return v == s }); len(q) > 0 {
		fleet.idle[s.addr] = q
	} else {
		delete(fleet.idle, s.addr)
	}
}

// pool detaches s from its run and keeps it for the next Run on its address.
func pool(s *session) {
	s.mu.Lock()
	s.run, s.w = nil, nil
	s.mu.Unlock()
	fleet.mu.Lock()
	defer fleet.mu.Unlock()
	if !s.closed() {
		fleet.idle[s.addr] = append(fleet.idle[s.addr], s)
	}
}

// lateHelloFactor bounds a hello read at this many DialTimeouts. Run waits
// one; a slow worker that greets later still joins the fleet, and a peer
// that never speaks is hung up on, so the next Run dials it afresh.
const lateHelloFactor = 4

// dial dials addr (bounded by DialTimeout and ctx), reads the hello (bounded
// by lateHelloFactor DialTimeouts) and hands the session, nil on failure, to
// greet on ch; once greet has given up, a hello that arrives after all puts
// the session in the fleet, and a failed one clears addr's mute count.
func (c *Controller) dial(ctx context.Context, addr string, ch chan<- *session, gaveUp <-chan struct{}) {
	var s *session
	d := net.Dialer{Timeout: c.DialTimeout}
	if conn, err := d.DialContext(ctx, "tcp", addr); err == nil {
		if hello, err := readHello(conn, lateHelloFactor*c.DialTimeout); err != nil {
			conn.Close()
		} else {
			s = startSession(addr, conn, hello)
		}
	}
	select {
	case ch <- s:
	case <-gaveUp:
		fleet.mu.Lock()
		if fleet.mute[addr]--; fleet.mute[addr] == 0 {
			delete(fleet.mute, addr)
		}
		fleet.mu.Unlock()
		if s != nil {
			pool(s)
		}
	}
}

// greet returns one session per address, nil for one dead at t=0: the
// fleet's idle session, else a dial and hello, all at once, waited for at
// most DialTimeout and not past ctx. An address with a greeting that an
// earlier Run gave up on is not dialed again: it is dead for this run.
func (c *Controller) greet(ctx context.Context, addrs []string) []*session {
	out := make([]*session, len(addrs))
	chs := make([]chan *session, len(addrs))
	gaveUp := make(chan struct{})
	defer close(gaveUp)
	for i, addr := range addrs {
		var mute bool
		if out[i], mute = take(addr); out[i] == nil && !mute {
			chs[i] = make(chan *session)
			go c.dial(ctx, addr, chs[i], gaveUp)
		}
	}
	var expire <-chan time.Time
	if c.DialTimeout > 0 {
		t := time.NewTimer(c.DialTimeout)
		defer t.Stop()
		expire = t.C
	}
	waiting := true
	for i, ch := range chs {
		if ch == nil {
			continue
		}
		if waiting {
			select {
			case out[i] = <-ch:
				continue
			case <-expire:
			case <-ctx.Done():
			}
			waiting = false
		}
		select {
		case out[i] = <-ch:
		default:
			fleet.mu.Lock()
			fleet.mute[addrs[i]]++
			fleet.mu.Unlock()
		}
	}
	return out
}
