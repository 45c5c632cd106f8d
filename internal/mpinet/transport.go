package mpinet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/threadpool"
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
	rc   syscall.RawConn // c's file descriptor, for the receive's non-blocking reads

	wmu  sync.Mutex // serializes data + heartbeat writes
	wbuf []byte     // the data frame Send encodes, reused under wmu

	// rmu is held by whoever reads the socket: Recv for the whole of its
	// call, or the heartbeat goroutine's drain while no Recv holds it.
	// The fields from in to rawWait belong to its holder.
	rmu sync.Mutex
	in  frameBuf
	// lastHeard is when bytes last arrived from the peer (the connection's
	// start until then). A read that finds the socket empty more than the
	// heartbeat timeout later finds the peer silent: every byte it sent
	// since would be waiting there.
	lastHeard time.Time
	// readFail is the socket's end as the reads found it: an error, EOF,
	// or a silence past the timeout (errSilent). Once set, the socket is
	// not read again; Recv reports it after the frames already in the
	// buffer.
	readFail error
	// end is what every Recv returns once the read side is over: the
	// peer's bye, or its failure.
	end error
	// skip counts the polls ready lets pass before its next read; readN
	// is that read's byte count.
	skip  int
	readN int
	// ready, rawRead and rawWait are p.pollRead, p.readFdNow and p.readFd
	// as method values, made once so that a receive allocates no closure.
	ready   func() bool
	rawRead func(fd uintptr) bool
	rawWait func(fd uintptr) bool
	timeout time.Duration

	// gone is set when the peer said goodbye: nothing left to probe.
	gone    atomic.Bool
	failMu  sync.Mutex
	failErr error
	failed  atomic.Bool
}

// fail records the connection's first failure, which Send reports from
// then on. A failure of the read side closes the connection. A failed
// write closes only the write half: what the peer sent before it is still
// in the socket, and Recv delivers it before it reports the peer's end.
func (p *peerConn) fail(err error, read bool) {
	p.failMu.Lock()
	if p.failErr == nil {
		p.failErr = err
		p.failed.Store(true)
		peerFailures.Inc()
	}
	p.failMu.Unlock()
	if read {
		p.c.Close()
	} else if c, ok := p.c.(interface{ CloseWrite() error }); ok {
		c.CloseWrite()
	}
}

// failure returns the recorded failure.
func (p *peerConn) failure() error {
	p.failMu.Lock()
	defer p.failMu.Unlock()
	return p.failErr
}

// readFd reads what the socket holds into the receive buffer: readN
// bytes, or readFail. On an empty socket it reports false, and
// syscall.RawConn.Read then waits for the socket to become readable and
// calls it again: the read of a parked receive (rawWait).
func (p *peerConn) readFd(fd uintptr) bool {
	n, err := syscall.Read(int(fd), p.in.space())
	switch {
	case n > 0:
		p.readN = n
	case err == nil:
		p.readFail = io.EOF
	case err == syscall.EAGAIN || err == syscall.EINTR:
		return false
	default:
		p.readFail = os.NewSyscallError("read", err)
	}
	return true
}

// readFdNow is readFd that takes an empty socket as its answer: the
// non-blocking read of a polling receive or a drain (rawRead).
func (p *peerConn) readFdNow(fd uintptr) bool {
	p.readFd(fd)
	return true
}

// read reads the socket through raw (rawRead or rawWait) and keeps what
// it got: readN bytes, or readFail, or neither when a non-blocking read
// found the socket empty.
func (p *peerConn) read(raw func(fd uintptr) bool) {
	p.readN = 0
	if err := p.rc.Read(raw); err != nil && p.readFail == nil {
		p.readFail = err
	}
	if p.readN > 0 {
		p.in.filled(p.readN)
		p.lastHeard = time.Now()
	}
}

// pollRead is the receive's poll condition (ready): true once a read
// brought a whole frame that is not a heartbeat, or ended the socket, or
// found the peer silent past the timeout. Heartbeats are dropped as they
// come, so they do not end the poll: its budget runs out on an idle peer
// whatever the heartbeat interval. A read is a system call, so it reads
// only every readEvery-th poll and passes the rest at once: Poll yields
// its P every pollsPerYield polls, and a read on every poll would space
// those yields out by milliseconds, starving the heartbeat writer and the
// garbage collector.
func (p *peerConn) pollRead() bool {
	if p.skip > 0 {
		p.skip--
		return false
	}
	p.skip = readEvery - 1
	p.read(p.rawRead)
	if p.frameReady() || p.readFail != nil {
		return true
	}
	if time.Since(p.lastHeard) > p.timeout {
		p.readFail = errSilent
		return true
	}
	return false
}

// frameReady drops the heartbeats at the front of the buffer and reports
// whether next has an answer there: a whole frame of another type, or a
// refused header.
func (p *peerConn) frameReady() bool {
	typ, whole := p.in.front()
	for whole && typ == frameHeartbeat {
		p.in.next()
		typ, whole = p.in.front()
	}
	return whole
}

// drain keeps the socket of a peer that no receive is reading from
// emptied, so its probes never fill the socket buffers: a collective's
// tree leaves some pairs of ranks with no traffic but heartbeats. It
// reads what the socket holds, without blocking, and drops the
// heartbeats. It stops at a whole frame of another type, which waits in
// the buffer for Recv, and it judges no silence: Recv does.
func (p *peerConn) drain() {
	for p.readFail == nil && !p.frameReady() {
		if p.read(p.rawRead); p.readN == 0 {
			return
		}
	}
}

// readEvery is how many of a polling receive's polls make one read of
// the socket. It sets the polling budget in wall time, which Poll counts
// in polls: on the 2-vCPU guest a receive that nothing reaches polls for
// 13–16 ms before it parks, against the in-process receive's 9–10 ms
// (BenchmarkRecvPollBudget against threadpool's BenchmarkPollBudget/rank).
// A read on every 512th poll stretched it to 21–24 ms, past twice the
// in-process budget; every 512th, 768th and 1024th read gave the same
// taxa-gamma-tcp wall_s (docs/PERFORMANCE.md §6 "Waiting").
const readEvery = 1024

// errSilent is the read side's end when the peer was silent past the
// heartbeat timeout.
var errSilent = errors.New("silent")

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

	// procs is GOMAXPROCS when the transport formed, read once: the call
	// takes the scheduler lock.
	procs int64
	// hostRanks is how many of the world's ranks share this host's CPUs:
	// this one and every peer whose connection stays on the host.
	hostRanks int64
	// counts counts how the receives were served
	// (telemetry.RankRecvPolled, RankRecvParked).
	counts telemetry.RankCounters

	// held keeps the recovery coordinator's rendezvous listener bound
	// for the transport's lifetime, so a survivor that missed the
	// membership window cannot rebind the recovery port and form a
	// spurious second world.
	held net.Listener

	// heartbeatsSuspended is a test hook: when set, the heartbeat loop
	// sends no probes, simulating a process that is alive at the TCP
	// level but wedged.
	heartbeatsSuspended atomic.Bool
}

// The process's waiting rule, shared by all its transports as they share
// its CPUs: receives poll while the live transports, and the ranks of a
// transport's world on this host, number at most GOMAXPROCS, as an
// in-process world's do while its ranks do (mpi.NewWorld), and host is
// what their polls know about the host's load.
var (
	liveTransports atomic.Int64
	host           threadpool.Host
)

// Rank returns this endpoint's rank in the world.
func (t *Transport) Rank() int { return t.rank }

// Size returns the world size.
func (t *Transport) Size() int { return t.size }

// Counters returns how this transport's receives were served, by polling
// or by parking (docs/PERFORMANCE.md §6 "Waiting"); mpi.Comm.Counters
// reads it.
func (t *Transport) Counters() telemetry.RankCounters { return t.counts }

var _ mpi.Transport = (*Transport)(nil)

// newTransport wires the established connections, counts the transport
// live and starts the heartbeat writer.
func newTransport(rank, size int, nonce uint64, conns []net.Conn, cfg Config) *Transport {
	t := &Transport{
		rank:       rank,
		size:       size,
		nonce:      nonce,
		conns:      make([]*peerConn, size),
		hbInterval: cfg.heartbeatInterval(),
		hbTimeout:  cfg.heartbeatTimeout(),
		stopHB:     make(chan struct{}),
		procs:      int64(runtime.GOMAXPROCS(0)),
	}
	now := time.Now()
	for peer, c := range conns {
		if c == nil {
			continue
		}
		p := &peerConn{peer: peer, c: c, lastHeard: now, timeout: t.hbTimeout}
		p.rc, _ = c.(syscall.Conn).SyscallConn()
		p.ready, p.rawRead, p.rawWait = p.pollRead, p.readFdNow, p.readFd
		t.conns[peer] = p
	}
	t.hostRanks = 1
	for _, c := range conns {
		if c != nil && onHost(c) {
			t.hostRanks++
		}
	}
	liveTransports.Add(1)
	t.hbStopped.Add(1)
	go t.heartbeatLoop()
	return t
}

// onHost reports whether c's two ends are on one host: a loopback
// connection, or one between two sockets of the same address.
func onHost(c net.Conn) bool {
	l, lok := c.LocalAddr().(*net.TCPAddr)
	r, rok := c.RemoteAddr().(*net.TCPAddr)
	return lok && rok && (r.IP.IsLoopback() || r.IP.Equal(l.IP))
}

// heartbeatLoop probes every peer, and drains the socket of every peer
// no receive is reading from. A silent peer is declared down by the
// receive that waits on it (Recv).
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
		for _, p := range t.conns {
			if p == nil {
				continue
			}
			if p.rmu.TryLock() {
				p.drain()
				p.rmu.Unlock()
			}
			if p.failed.Load() || p.gone.Load() {
				continue
			}
			p.wmu.Lock()
			p.c.SetWriteDeadline(time.Now().Add(t.hbTimeout))
			err := sendFrame(p.c, heartbeatFrame[:])
			p.wmu.Unlock()
			if err != nil && !t.closed.Load() {
				p.fail(&PeerDownError{Peer: p.peer, Reason: fmt.Sprintf("heartbeat write failed: %v", err)}, false)
			}
		}
	}
}

// heartbeatFrame is the whole of every heartbeat: an empty payload.
var heartbeatFrame = [frameHeader]byte{4: frameHeartbeat}

// Send implements mpi.Transport: the frame is encoded into the peer's
// send buffer and written in one Write.
func (t *Transport) Send(to int, m mpi.Message) error {
	p := t.conn(to)
	if p == nil {
		return fmt.Errorf("mpinet: rank %d has no connection to rank %d", t.rank, to)
	}
	if p.failed.Load() {
		return p.failure()
	}
	p.wmu.Lock()
	p.wbuf = appendDataFrame(p.wbuf[:0], m)
	p.c.SetWriteDeadline(time.Now().Add(t.hbTimeout + t.hbInterval))
	err := sendFrame(p.c, p.wbuf)
	p.wmu.Unlock()
	if err != nil {
		p.fail(&PeerDownError{Peer: to, Reason: fmt.Sprintf("send failed: %v", err)}, false)
		return p.failure()
	}
	return nil
}

// Recv implements mpi.Transport. It parses the peer's frames in place
// from the connection's receive buffer, skipping heartbeats, and reads
// the socket itself when the buffer holds no whole frame; between
// receives only the heartbeat goroutine's drain reads it. The frames that
// arrived before the peer's end — its bye, its failure, or a failed
// write of ours — are delivered before the end is reported.
//
// It waits as an in-process receive does (docs/PERFORMANCE.md §6
// "Waiting"): while the process's live transports, and the world's ranks
// on this host, number at most GOMAXPROCS it polls the socket under threadpool.Poll, with the
// process's Host, and parks in a blocking read only when Poll gives up;
// otherwise it parks at once. Once parked, it stays parked until a data
// frame arrives. A parked read's deadline is the heartbeat timeout after
// the peer was last heard, and a polling receive checks the clock at each
// read, so a silent peer is declared down by the receive that waits on it.
func (t *Transport) Recv(from int) (mpi.Message, error) {
	p := t.conn(from)
	if p == nil {
		return mpi.Message{}, fmt.Errorf("mpinet: rank %d has no connection to rank %d", t.rank, from)
	}
	p.rmu.Lock()
	defer p.rmu.Unlock()
	poll := max(liveTransports.Load(), t.hostRanks) <= t.procs
	parked := !poll
	for p.end == nil {
		typ, payload, ok, err := p.in.next()
		switch {
		case err != nil:
			t.lose(p, fmt.Sprintf("connection lost: %v", err))
		case !ok && p.readFail == errSilent:
			heartbeatMisses.Inc()
			t.lose(p, fmt.Sprintf("heartbeat timeout: no traffic for %s", t.hbTimeout))
		case !ok && p.readFail != nil:
			t.lose(p, fmt.Sprintf("connection lost: %v", p.in.streamErr(p.readFail)))
		case !ok && !parked:
			p.skip = 0
			if !threadpool.Poll(p.ready, &host) {
				parked = true
				t.park(p)
			}
		case !ok:
			t.park(p)
		case typ == frameData:
			m, err := decodeMessage(payload)
			if err != nil {
				t.lose(p, fmt.Sprintf("protocol error: %v", err))
				continue
			}
			if parked {
				t.counts[telemetry.RankRecvParked]++
			} else {
				t.counts[telemetry.RankRecvPolled]++
			}
			return m, nil
		case typ == frameHeartbeat:
			// Liveness only; lastHeard moved when its bytes arrived.
		case typ == frameBye:
			p.gone.Store(true)
			p.end = &PeerDownError{Peer: p.peer, Reason: "connection closed by peer"}
		default:
			t.lose(p, fmt.Sprintf("unexpected frame type %d", typ))
		}
	}
	return mpi.Message{}, p.end
}

// park takes what the socket holds, and when it holds nothing blocks in
// a read until bytes arrive, the socket ends, or the heartbeat timeout
// after the peer was last heard passes. The first read does not block,
// so a receive that finds its bytes there sets no deadline, and one that
// has not heard the peer for longer than the timeout — a frame waited in
// the buffer while its rank computed, and the drain stopped there — finds
// the heartbeats that came meanwhile before it calls the peer silent.
func (t *Transport) park(p *peerConn) {
	if p.read(p.rawRead); p.readN == 0 && p.readFail == nil && time.Since(p.lastHeard) <= t.hbTimeout {
		p.c.SetReadDeadline(p.lastHeard.Add(t.hbTimeout))
		p.read(p.rawWait)
		p.c.SetReadDeadline(time.Time{})
	}
	if p.readN == 0 && (p.readFail == nil || errors.Is(p.readFail, os.ErrDeadlineExceeded)) {
		p.readFail = errSilent
	}
}

// lose ends the read side with the peer's failure for reason: every later
// Recv returns it, and, unless this transport closed itself, it is the
// connection's failure and the connection closes.
func (t *Transport) lose(p *peerConn, reason string) {
	p.end = &PeerDownError{Peer: p.peer, Reason: reason}
	if !t.closed.Load() {
		p.fail(p.end, true)
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
	liveTransports.Add(-1)
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
