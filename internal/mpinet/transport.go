package mpinet

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mpi"
)

// PeerDownError reports the loss of a peer rank: its process exited
// (connection closed or reset) or went silent past the heartbeat
// timeout. internal/mpi wraps it in *mpi.CommError; fault.RunNet
// unwraps it with errors.As to trigger survivor recovery.
type PeerDownError struct {
	// Peer is the lost rank.
	Peer int
	// Reason describes the detection path ("heartbeat timeout",
	// "connection closed by peer", ...).
	Reason string
}

// Error implements error.
func (e *PeerDownError) Error() string {
	return fmt.Sprintf("mpinet: peer rank %d down: %s", e.Peer, e.Reason)
}

// peerConn is one live connection to a peer rank.
type peerConn struct {
	peer int
	c    net.Conn

	wmu sync.Mutex // serializes data + heartbeat writes

	// inbox receives decoded data frames from the reader goroutine.
	inbox chan mpi.Message
	// done closes when the reader exits; failErr (read after done, or
	// under failMu) holds the failure, nil meaning a graceful bye.
	done    chan struct{}
	failMu  sync.Mutex
	failErr error
	failed  atomic.Bool

	// lastHeard is the unix-nano timestamp of the last frame (any type)
	// read from this peer; the heartbeat monitor compares it against
	// the timeout.
	lastHeard atomic.Int64
}

// fail records the first failure and tears the connection down, waking
// both the reader (via the closed socket) and any blocked Recv (via
// done, closed by the reader on exit).
func (p *peerConn) fail(err error) {
	p.failMu.Lock()
	if p.failErr == nil && err != nil {
		p.failErr = err
		p.failed.Store(true)
		peerFailures.Inc()
	}
	p.failMu.Unlock()
	p.c.Close()
}

// failure returns the recorded failure, or a generic closed-peer error
// when the peer said goodbye but a caller still expected traffic.
func (p *peerConn) failure() error {
	p.failMu.Lock()
	defer p.failMu.Unlock()
	if p.failErr != nil {
		return p.failErr
	}
	return &PeerDownError{Peer: p.peer, Reason: "connection closed by peer"}
}

// Transport is a full-mesh TCP implementation of mpi.Transport for one
// rank of a multi-process world. Build one with Connect (initial
// rendezvous) or Recover (post-failure re-rendezvous).
type Transport struct {
	rank, size int
	nonce      uint64
	conns      []*peerConn // indexed by peer rank; conns[rank] == nil

	hbInterval time.Duration
	hbTimeout  time.Duration

	closed    atomic.Bool
	stopHB    chan struct{}
	hbStopped sync.WaitGroup

	// held keeps the recovery coordinator's rendezvous listener bound
	// for the transport's lifetime, so a survivor that missed the
	// membership window cannot rebind the recovery port and form a
	// spurious second world.
	held net.Listener

	// heartbeatsSuspended is a test hook: when set, the heartbeat loop
	// neither sends probes nor checks peer timeouts, simulating a
	// process that is alive at the TCP level but wedged.
	heartbeatsSuspended atomic.Bool
}

// Rank returns this endpoint's rank in the world.
func (t *Transport) Rank() int { return t.rank }

// Size returns the world size.
func (t *Transport) Size() int { return t.size }

var _ mpi.Transport = (*Transport)(nil)

// newTransport wires the established connections and starts the reader
// and heartbeat machinery.
func newTransport(rank, size int, nonce uint64, conns []net.Conn, cfg Config) *Transport {
	t := &Transport{
		rank:       rank,
		size:       size,
		nonce:      nonce,
		conns:      make([]*peerConn, size),
		hbInterval: cfg.heartbeatInterval(),
		hbTimeout:  cfg.heartbeatTimeout(),
		stopHB:     make(chan struct{}),
	}
	now := time.Now().UnixNano()
	for peer, c := range conns {
		if c == nil {
			continue
		}
		pc := &peerConn{
			peer:  peer,
			c:     c,
			inbox: make(chan mpi.Message, 16),
			done:  make(chan struct{}),
		}
		pc.lastHeard.Store(now)
		t.conns[peer] = pc
		go t.readLoop(pc)
	}
	t.hbStopped.Add(1)
	go t.heartbeatLoop()
	return t
}

// readLoop decodes frames from one peer until error or bye.
func (t *Transport) readLoop(p *peerConn) {
	defer close(p.done)
	br := bufio.NewReaderSize(p.c, 64<<10)
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			if !p.failed.Load() && !t.closed.Load() {
				p.fail(&PeerDownError{Peer: p.peer, Reason: fmt.Sprintf("connection lost: %v", err)})
			}
			return
		}
		p.lastHeard.Store(time.Now().UnixNano())
		switch typ {
		case frameData:
			m, err := decodeMessage(payload)
			if err != nil {
				p.fail(&PeerDownError{Peer: p.peer, Reason: fmt.Sprintf("protocol error: %v", err)})
				return
			}
			select {
			case p.inbox <- m:
			case <-t.stopHB:
				return
			}
		case frameHeartbeat:
			// Liveness only; lastHeard already updated.
		case frameBye:
			return
		default:
			p.fail(&PeerDownError{Peer: p.peer, Reason: fmt.Sprintf("unexpected frame type %d", typ)})
			return
		}
	}
}

// heartbeatLoop probes every peer and declares silent ones dead.
func (t *Transport) heartbeatLoop() {
	defer t.hbStopped.Done()
	ticker := time.NewTicker(t.hbInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.stopHB:
			return
		case <-ticker.C:
		}
		if t.heartbeatsSuspended.Load() {
			continue
		}
		now := time.Now()
		for _, p := range t.conns {
			if p == nil || p.failed.Load() {
				continue
			}
			select {
			case <-p.done:
				continue // reader exited (bye or failure): nothing to probe
			default:
			}
			if now.UnixNano()-p.lastHeard.Load() > t.hbTimeout.Nanoseconds() {
				heartbeatMisses.Inc()
				p.fail(&PeerDownError{
					Peer:   p.peer,
					Reason: fmt.Sprintf("heartbeat timeout: no traffic for %s", t.hbTimeout),
				})
				continue
			}
			p.wmu.Lock()
			p.c.SetWriteDeadline(now.Add(t.hbTimeout))
			err := writeFrame(p.c, frameHeartbeat, nil)
			p.wmu.Unlock()
			if err != nil && !t.closed.Load() {
				p.fail(&PeerDownError{Peer: p.peer, Reason: fmt.Sprintf("heartbeat write failed: %v", err)})
			}
		}
	}
}

// Send implements mpi.Transport.
func (t *Transport) Send(to int, m mpi.Message) error {
	p := t.conn(to)
	if p == nil {
		return fmt.Errorf("mpinet: rank %d has no connection to rank %d", t.rank, to)
	}
	if p.failed.Load() {
		return p.failure()
	}
	payload := appendMessage(make([]byte, 0, 13+8*len(m.F64)+len(m.Raw)), m)
	p.wmu.Lock()
	p.c.SetWriteDeadline(time.Now().Add(t.hbTimeout + t.hbInterval))
	err := writeFrame(p.c, frameData, payload)
	p.wmu.Unlock()
	if err != nil {
		p.fail(&PeerDownError{Peer: to, Reason: fmt.Sprintf("send failed: %v", err)})
		return p.failure()
	}
	return nil
}

// Recv implements mpi.Transport. Buffered messages drain even after the
// peer goes down, so a failure never loses data that already arrived.
//
// Unlike the in-process transport, Recv parks at once instead of polling
// the inbox under threadpool.Poll: a message reaches the inbox only
// through this peer's reader goroutine, which the netpoller must first
// wake and a P must then run — and a polling rank holds its P, so with
// every rank polling the reader waits out the poll budget. Polling here made the
// benchmark's parts-gamma-tcp about 3× and taxa-gamma-tcp about 5×
// slower (docs/PERFORMANCE.md §6 "Waiting").
func (t *Transport) Recv(from int) (mpi.Message, error) {
	p := t.conn(from)
	if p == nil {
		return mpi.Message{}, fmt.Errorf("mpinet: rank %d has no connection to rank %d", t.rank, from)
	}
	select {
	case m := <-p.inbox:
		return m, nil
	default:
	}
	select {
	case m := <-p.inbox:
		return m, nil
	case <-p.done:
		// Reader exited; drain anything it enqueued before failing.
		select {
		case m := <-p.inbox:
			return m, nil
		default:
		}
		return mpi.Message{}, p.failure()
	}
}

func (t *Transport) conn(peer int) *peerConn {
	if peer < 0 || peer >= len(t.conns) {
		return nil
	}
	return t.conns[peer]
}

// Close implements mpi.Transport: a best-effort goodbye to every live
// peer, then socket teardown. Idempotent.
func (t *Transport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(t.stopHB)
	for _, p := range t.conns {
		if p == nil {
			continue
		}
		if !p.failed.Load() {
			p.wmu.Lock()
			p.c.SetWriteDeadline(time.Now().Add(time.Second))
			writeFrame(p.c, frameBye, nil)
			p.wmu.Unlock()
		}
		p.c.Close()
	}
	if t.held != nil {
		t.held.Close()
	}
	t.hbStopped.Wait()
	return nil
}
