package mpi

import (
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/threadpool"
)

// Message is the unit a Transport moves between ranks. Seq is the
// collective sequence number (asserted on receipt to catch ranks calling
// collectives in different orders); exactly one of F64/Raw is normally
// set, but transports must preserve both, including the nil/empty
// distinction.
type Message struct {
	// Seq is the sender's collective sequence number.
	Seq uint64
	// F64 is a float64 payload (reductions, broadcasts of parameters).
	F64 []float64
	// Raw is a byte payload (descriptors, opcodes, serialized state).
	Raw []byte
}

// Transport is the point-to-point substrate a Comm runs on. The
// collectives (binomial-tree Bcast/Reduce/Allreduce, Barrier) are written purely against this interface, so the same
// deterministic algorithms run unchanged over Go channels (the
// in-process World) and over TCP (internal/mpinet).
//
// Contract:
//
//   - Send(to, m) delivers m to rank `to` in order. The transport owns
//     the payload after Send returns; implementations that can alias
//     caller memory (in-process channels) must copy.
//   - Recv(from) blocks for the next message from rank `from`. Messages
//     from distinct peers are independent streams; there is no global
//     ordering.
//   - Both return an error only when the peer is unreachable (process
//     death, connection loss, shutdown). The in-process transport never
//     fails; the TCP transport surfaces *mpinet.PeerDownError values
//     that the fault-recovery layer unwraps.
//   - Close releases resources; in-flight Recvs fail.
type Transport interface {
	Send(to int, m Message) error
	Recv(from int) (Message, error)
	Close() error
}

// CommError is the panic value a Comm raises when a collective cannot
// complete: its transport failed, or a peer broke the collective
// protocol (*ProtocolError). Collectives keep their no-error signatures
// (they cannot make progress either way); the drivers — enginecore's
// RunOnComm, fault.RunNet — recover the panic and return it as the
// rank's error. Only a transport failure wrapping *mpinet.PeerDownError
// sends the survivors into recovery; a protocol violation fails the run.
type CommError struct {
	// Rank is the local rank that observed the failure.
	Rank int
	// Peer is the remote rank the failed Send/Recv addressed.
	Peer int
	// Err is the transport's error (errors.As-compatible with
	// *mpinet.PeerDownError for TCP peer loss) or a *ProtocolError.
	Err error
}

// Error implements error.
func (e *CommError) Error() string {
	return fmt.Sprintf("mpi: rank %d: collective with rank %d failed: %v", e.Rank, e.Peer, e.Err)
}

// Unwrap exposes the transport error to errors.Is/As.
func (e *CommError) Unwrap() error { return e.Err }

// ProtocolError is a message a live peer sent that does not fit the
// collective this rank is in: another sequence number (the ranks call
// collectives in different orders) or a reduction operand of another
// length (the ranks hold different data layouts). Both sides run
// different programs, so dropping the peer cannot repair the world.
type ProtocolError struct {
	// Detail names the mismatch.
	Detail string
}

// Error implements error.
func (e *ProtocolError) Error() string { return "collective protocol mismatch: " + e.Detail }

// chanTransport is the in-process implementation: a shared matrix of
// buffered channels, one per ordered rank pair. It never fails.
type chanTransport struct {
	chans [][]chan Message // chans[from][to]
	rank  int
	// f64Free/rawFree are the world's payload free lists, one per ordered
	// rank pair ([from][to]): a Send copies its payload into a buffer
	// from its pair's list, and the receiver hands the buffers it
	// received back when its Comm starts the next collective (release) —
	// a received payload is valid until then.
	f64Free [][]chan []float64
	rawFree [][]chan []byte
	held    []heldPayload
	// poll is the world's waiting rule (World.poll): receives poll their
	// peer's channel under threadpool.Poll, with the world's Host, before
	// they park.
	poll bool
	host *threadpool.Host
	// counts counts how this rank's receives were served
	// (telemetry.RankRecvPolled, RankRecvParked).
	counts telemetry.RankCounters
}

// heldPayload is a received message's payload and its sender.
type heldPayload struct {
	from int
	f64  []float64
	raw  []byte
}

// Send copies the payload (the in-process sender may mutate its buffers
// after the call) into recycled buffers and enqueues it.
func (t *chanTransport) Send(to int, m Message) error {
	m.F64 = recycledCopy(t.f64Free[t.rank][to], m.F64)
	m.Raw = recycledCopy(t.rawFree[t.rank][to], m.Raw)
	t.chans[t.rank][to] <- m
	return nil
}

// recycledCopy returns a copy of src in a buffer from free when one is
// large enough, else in a new one; nil stays nil and empty stays empty.
func recycledCopy[T any](free chan []T, src []T) []T {
	if src == nil {
		return nil
	}
	var b []T
	select {
	case b = <-free:
	default:
	}
	if cap(b) < len(src) {
		b = make([]T, len(src))
	}
	b = b[:len(src)]
	copy(b, src)
	return b
}

// release hands every payload received since the last release back to
// its sender's free list (dropping it when the list is full).
func (t *chanTransport) release() {
	for _, h := range t.held {
		if h.f64 != nil {
			select {
			case t.f64Free[h.from][t.rank] <- h.f64:
			default:
			}
		}
		if h.raw != nil {
			select {
			case t.rawFree[h.from][t.rank] <- h.raw:
			default:
			}
		}
	}
	clear(t.held)
	t.held = t.held[:0]
}

// Recv takes the next message from the peer's channel. In a polling
// world it first polls the channel's length under the thread pool's rule
// and parks on the channel only when threadpool.Poll gives up; a rank is
// the channel's only receiver, so a message it saw queued is still there.
// Otherwise it parks at once.
func (t *chanTransport) Recv(from int) (Message, error) {
	ch := t.chans[from][t.rank]
	if t.poll && threadpool.Poll(func() bool { return len(ch) > 0 }, t.host) {
		t.counts[telemetry.RankRecvPolled]++
	} else {
		t.counts[telemetry.RankRecvParked]++
	}
	m := <-ch
	if m.F64 != nil || m.Raw != nil {
		t.held = append(t.held, heldPayload{from: from, f64: m.F64, raw: m.Raw})
	}
	return m, nil
}

// Counters returns how this rank's receives were served.
func (t *chanTransport) Counters() telemetry.RankCounters { return t.counts }

// Close is a no-op: the channels are shared by the whole world and are
// garbage-collected with it.
func (t *chanTransport) Close() error { return nil }

// NewComm builds a communicator endpoint for one rank of a size-rank
// world over an arbitrary transport. Every rank of the world must use
// the same size and a transport wired to the same peer set. The meter
// accumulates Table-I byte/op accounting; because every collective
// meters at its root (rank 0 throughout both engines), rank 0's meter
// over a distributed transport is bit-identical to the shared meter of
// an in-process World.
func NewComm(t Transport, rank, size int, meter *Meter) *Comm {
	if size < 1 {
		panic(fmt.Sprintf("mpi: world size %d", size))
	}
	if rank < 0 || rank >= size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, size))
	}
	if meter == nil {
		meter = NewMeter()
	}
	return &Comm{tr: t, rank: rank, size: size, meter: meter}
}

// Close releases the underlying transport. In-process Comms share their
// world's channels and need no teardown; network Comms close sockets.
func (c *Comm) Close() error { return c.tr.Close() }
