// Package netfault is a frame-aware fault-injection TCP proxy for the
// edgenet protocol. A Proxy sits between the controller and one worker
// (the controller dials the proxy, the proxy dials the worker) and relays
// frames byte-exactly — except when its Decider says otherwise: a frame
// can be delayed, have a payload byte flipped (leaving the checksum stale,
// so the receiver's CRC catches it), stall the link (a hung node), or drop
// the connection (a crash). Every injected fault is recorded in an exact
// ledger so chaos tests can assert that the controller's failure counters
// match what was actually done to the wire.
//
// Faults are injected on the worker→controller direction, where the
// protocol's completions and heartbeats flow; the controller→worker
// direction is relayed verbatim (and stalled together with the downstream
// on Hang, like a genuinely frozen node).
package netfault

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/edgenet"
)

// Action is the fault applied to one worker→controller frame.
type Action int

const (
	// Pass relays the frame unchanged.
	Pass Action = iota
	// Delay sleeps Proxy.Delay before relaying the frame (straggler link).
	Delay
	// Corrupt flips one payload byte and relays the frame with its now
	// stale checksum — detectable corruption, stream still aligned.
	Corrupt
	// Hang stops relaying in both directions; the connections stay open,
	// so the peer sees a silent stall, not a disconnect.
	Hang
	// Drop closes both connections mid-stream — a crash-stop failure.
	Drop
)

// Decider picks the action for the i-th worker→controller frame (0-based).
// env is the frame's decoded envelope, nil when the frame does not decode
// (a bad checksum or payload). Deciders run on the proxy's relay
// goroutine, one frame at a time.
type Decider func(i int, env *edgenet.Envelope) Action

// Counts is the fault ledger: exactly what the proxy did to the stream.
type Counts struct {
	Forwarded int64 // frames relayed unchanged (includes delayed ones)
	Delayed   int64
	Corrupted int64
	Hung      int64 // 0 or 1: the stall is terminal for the relay
	Dropped   int64 // 0 or 1
}

// Proxy is one worker's faulty link. Create with New, point the controller
// at Addr, and read the ledger with Counts.
type Proxy struct {
	target  string
	decide  Decider
	ln      net.Listener
	dialer  net.Dialer
	closed  chan struct{}
	wg      sync.WaitGroup
	onEvent func(Action)

	delay atomic.Int64 // sleep applied to Delay-actioned frames, in ns

	forwarded atomic.Int64
	delayed   atomic.Int64
	corrupted atomic.Int64
	hung      atomic.Int64
	dropped   atomic.Int64
}

// New starts a proxy on a loopback port in front of target. decide may be
// nil (relay everything). onEvent, when non-nil, is called after each
// non-Pass action is applied — chaos tests use it to sequence, e.g., a
// rejoin after the injected crash.
func New(target string, decide Decider, onEvent func(Action)) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netfault: listen: %w", err)
	}
	p := &Proxy{
		target:  target,
		decide:  decide,
		ln:      ln,
		closed:  make(chan struct{}),
		onEvent: onEvent,
	}
	p.SetDelay(100 * time.Millisecond)
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the address the controller should dial instead of the worker.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetDelay sets the sleep applied to Delay-actioned frames (default 100ms).
func (p *Proxy) SetDelay(d time.Duration) { p.delay.Store(int64(d)) }

// Counts snapshots the fault ledger.
func (p *Proxy) Counts() Counts {
	return Counts{
		Forwarded: p.forwarded.Load(),
		Delayed:   p.delayed.Load(),
		Corrupted: p.corrupted.Load(),
		Hung:      p.hung.Load(),
		Dropped:   p.dropped.Load(),
	}
}

// Close tears the proxy down, closing both sides of every relayed
// connection (which unblocks a Hang).
func (p *Proxy) Close() error {
	select {
	case <-p.closed:
	default:
		close(p.closed)
	}
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.relay(conn)
		}()
	}
}

// relay serves one controller connection: dial the worker, pump the
// upstream verbatim, and pump the downstream frame by frame through the
// Decider.
func (p *Proxy) relay(ctrl net.Conn) {
	defer ctrl.Close()
	worker, err := p.dialer.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer worker.Close()

	// A Close during a Hang must unblock both pumps.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-p.closed:
			ctrl.Close()
			worker.Close()
		case <-stop:
		}
	}()

	hung := make(chan struct{})
	var once sync.Once
	hang := func() {
		once.Do(func() { close(hung) })
	}

	// Upstream controller→worker: verbatim copy, frozen on Hang.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		buf := make([]byte, 32<<10)
		for {
			n, err := ctrl.Read(buf)
			if n > 0 {
				select {
				case <-hung:
					<-p.closed // stay frozen until the proxy dies
					return
				default:
				}
				if _, werr := worker.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()

	// Downstream worker→controller: frame-aware fault injection.
	for i := 0; ; i++ {
		frame, err := edgenet.ReadRawFrame(worker)
		if err != nil {
			return
		}
		action := Pass
		if p.decide != nil {
			action = p.decide(i, decodeEnvelope(frame))
		}
		switch action {
		case Delay:
			p.delayed.Add(1)
			p.event(Delay)
			select {
			case <-time.After(time.Duration(p.delay.Load())):
			case <-p.closed:
				return
			}
		case Corrupt:
			// Flip the frame's last byte, which is the payload's (or, for
			// an empty payload, the CRC's): the length stays intact and
			// the CRC stale, so the receiver detects the damage and stays
			// aligned.
			frame[len(frame)-1] ^= 0xFF
			p.corrupted.Add(1)
		case Hang:
			p.hung.Add(1)
			hang()
			p.event(Hang)
			<-p.closed // hold both connections open, forward nothing
			return
		case Drop:
			p.dropped.Add(1)
			ctrl.Close()
			worker.Close()
			p.event(Drop)
			return
		}
		// Count before the write, as Corrupted is: a peer that has read
		// the frame must find it in the ledger.
		if action != Corrupt {
			p.forwarded.Add(1)
		}
		if _, err := ctrl.Write(frame); err != nil {
			return
		}
		if action == Corrupt {
			p.event(Corrupt)
		}
	}
}

func (p *Proxy) event(a Action) {
	if p.onEvent != nil {
		p.onEvent(a)
	}
}

func decodeEnvelope(frame []byte) *edgenet.Envelope {
	env, err := edgenet.ReadFrame(bytes.NewReader(frame))
	if err != nil {
		return nil
	}
	return env
}
