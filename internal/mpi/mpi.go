// Package mpi is an in-process message-passing runtime standing in for MPI:
// ranks are goroutines, point-to-point transport is Go channels, and the
// collectives the two parallelization schemes need (Barrier, Bcast, Reduce,
// Allreduce, Gatherv, Scatterv) are implemented with deterministic binomial
// trees.
//
// Two properties are load-bearing for the reproduction:
//
//  1. Determinism. Reduce applies operands in a fixed tree order and
//     Allreduce is Reduce-to-root followed by Bcast, so every rank receives
//     bit-identical results — the property §III-B of the paper requires so
//     the de-centralized replicas never diverge
//     (TestAllreduceIdenticalEverywhere; at the run level,
//     internal/enginecore's TestEpilogueOnEveryRank fails every rank on a
//     one-bit lnL difference).
//
//  2. Metering. Every collective is tagged with a CommClass and metered
//     (operation count + payload bytes, counted once per logical collective
//     independent of rank count — the accounting Table I of the paper
//     uses). The meters are what the benchmark harness reads out.
package mpi

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/threadpool"
)

// CommClass labels the purpose of a collective for Table-I style
// accounting.
type CommClass int

// The classes mirror the four rows of the paper's Table I plus a
// bookkeeping class for control traffic.
const (
	// ClassTraversal is traversal-descriptor broadcasts (fork-join only).
	ClassTraversal CommClass = iota
	// ClassBranchLength is branch-length optimization traffic
	// (derivative reductions, fork-join branch-length commands).
	ClassBranchLength
	// ClassLikelihoodEval is per-site/per-partition log-likelihood
	// reductions at the virtual root.
	ClassLikelihoodEval
	// ClassModelParams is broadcasts/reductions of changed model
	// parameters (α, GTR rates, PSR rates).
	ClassModelParams
	// ClassControl is scheme-internal control traffic (job opcodes).
	ClassControl

	// NumCommClasses is the number of distinct classes.
	NumCommClasses
)

// String implements fmt.Stringer.
func (c CommClass) String() string {
	switch c {
	case ClassTraversal:
		return "traversal-descriptor"
	case ClassBranchLength:
		return "branch-length"
	case ClassLikelihoodEval:
		return "likelihood-eval"
	case ClassModelParams:
		return "model-params"
	case ClassControl:
		return "control"
	}
	return fmt.Sprintf("CommClass(%d)", int(c))
}

// ClassNames returns every traffic class's label, indexed by class: what
// telemetry.NewCollector labels collective spans, /metrics series and the
// report's rows with.
func ClassNames() []string {
	names := make([]string, NumCommClasses)
	for c := CommClass(0); c < NumCommClasses; c++ {
		names[c] = c.String()
	}
	return names
}

// Op selects a reduction operator.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMin
	OpMax
)

func (o Op) apply(acc, v float64) float64 {
	switch o {
	case OpSum:
		return acc + v
	case OpMin:
		if v < acc {
			return v
		}
		return acc
	case OpMax:
		if v > acc {
			return v
		}
		return acc
	}
	panic("mpi: unknown op")
}

// World is a communicator over a fixed set of in-process ranks wired by
// the channel transport. Distributed worlds are built instead with
// NewComm over an internal/mpinet TCP transport — the collectives are
// identical; only the substrate differs.
type World struct {
	size  int
	chans [][]chan Message // chans[from][to]
	// f64Free/rawFree are the payload free lists (chanTransport).
	f64Free [][]chan []float64
	rawFree [][]chan []byte
	meter   *Meter
	// poll is the world's waiting rule: its receives poll before they
	// park (threadpool.Poll) when every rank can hold a processor, and
	// park at once when the ranks outnumber GOMAXPROCS — a rank polling
	// for a peer that has no processor to run on would only delay it.
	// Decided once, here: runtime.GOMAXPROCS takes the scheduler lock.
	poll bool
	// host is what the world's polling receives know about the host's
	// load: a receive whose CPU yield another thread takes opens a busy
	// window in which every receive of the world parks at once.
	host threadpool.Host
}

// NewWorld creates a communicator with the given number of ranks.
func NewWorld(size int) *World {
	if size < 1 {
		panic(fmt.Sprintf("mpi: world size %d", size))
	}
	w := &World{size: size, meter: NewMeter(), poll: size <= runtime.GOMAXPROCS(0)}
	w.chans = make([][]chan Message, size)
	w.f64Free = make([][]chan []float64, size)
	w.rawFree = make([][]chan []byte, size)
	for i := range w.chans {
		w.chans[i] = make([]chan Message, size)
		w.f64Free[i] = make([]chan []float64, size)
		w.rawFree[i] = make([]chan []byte, size)
		for j := range w.chans[i] {
			w.chans[i][j] = make(chan Message, 4)
			w.f64Free[i][j] = make(chan []float64, payloadFreeList)
			w.rawFree[i][j] = make(chan []byte, payloadFreeList)
		}
	}
	return w
}

// payloadFreeList is how many idle payload buffers of each kind a rank
// pair keeps: a collective leaves at most a few messages per pair in
// flight or held.
const payloadFreeList = 8

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Meter returns the shared communication meter.
func (w *World) Meter() *Meter { return w.meter }

// Run executes f concurrently on every rank (SPMD) and waits for all of
// them. A panic on any rank is re-raised on the caller after all ranks
// finish or deadlock-free teardown is impossible; ranks therefore must not
// panic in normal operation.
func (w *World) Run(f func(c *Comm)) {
	var wg sync.WaitGroup
	panics := make([]any, w.size)
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[rank] = p
				}
			}()
			f(w.Comm(rank))
		}(r)
	}
	wg.Wait()
	for rank, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("mpi: rank %d panicked: %v", rank, p))
		}
	}
}

// Comm returns the per-rank handle.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, w.size))
	}
	t := &chanTransport{chans: w.chans, f64Free: w.f64Free, rawFree: w.rawFree, rank: rank, poll: w.poll, host: &w.host}
	c := NewComm(t, rank, w.size, w.meter)
	c.ch = t
	return c
}

// Comm is one rank's endpoint. It must be used by a single goroutine.
//
// A collective's result — the slice Bcast, BcastBytes, Reduce or
// Allreduce returns — is valid until the Comm's next collective: a
// reduction accumulates into a buffer the Comm owns, and an in-process
// world recycles received payloads when the receiver's next collective
// starts. Callers copy what must survive.
type Comm struct {
	tr    Transport
	ch    *chanTransport // tr, when it is an in-process world's
	rank  int
	size  int
	meter *Meter
	seq   uint64
	rec   *telemetry.Recorder
	acc   []float64 // Reduce's accumulator
}

// SetRecorder attaches a telemetry recorder; every subsequent collective
// is wall-clock timed into it (once per logical collective — the
// broadcast leg of an Allreduce is inside the same span). A nil recorder
// (the default) disables timing at nil-check cost. Telemetry is
// out-of-band: payloads, ordering, and the byte/op meters are untouched.
func (c *Comm) SetRecorder(r *telemetry.Recorder) { c.rec = r }

// Counters returns this rank's per-rank counters: how its receives were
// served, by polling or by parking (docs/PERFORMANCE.md §6 "Waiting").
// Zero over a transport that does not count them.
func (c *Comm) Counters() telemetry.RankCounters {
	if ct, ok := c.tr.(countingTransport); ok {
		return ct.Counters()
	}
	return telemetry.RankCounters{}
}

// countingTransport is a Transport that counts how its receives were
// served (telemetry.RankRecvPolled, RankRecvParked): the in-process one
// and internal/mpinet's.
type countingTransport interface {
	Counters() telemetry.RankCounters
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.size }

// Meter returns the meter (shared across ranks in-process; per-process
// over a network transport, where rank 0's meter carries the totals).
func (c *Comm) Meter() *Meter { return c.meter }

// MeterOp accounts one logical collective of the given class carrying
// `bytes` payload bytes without performing any communication. Engines use
// it on paths where the real payload is provably elided — e.g. a
// single-rank fork-join master that skips encoding a descriptor nobody
// would receive — so Table I accounting stays identical to a multi-rank
// run's per-collective charges.
func (c *Comm) MeterOp(class CommClass, bytes int) { c.meter.addOp(class, bytes) }

// send transmits a payload to rank `to`; the transport owns (and, if it
// must, copies) the payload. A transport failure raises *CommError.
func (c *Comm) send(to int, m Message) {
	if err := c.tr.Send(to, m); err != nil {
		panic(&CommError{Rank: c.rank, Peer: to, Err: err})
	}
}

// recv blocks for the next message from rank `from` and asserts the
// collective sequence number, catching protocol mismatches (ranks calling
// collectives in different orders) immediately instead of silently
// corrupting data. A transport failure or a mismatch raises *CommError.
func (c *Comm) recv(from int, seq uint64) Message {
	m, err := c.tr.Recv(from)
	if err != nil {
		panic(&CommError{Rank: c.rank, Peer: from, Err: err})
	}
	if m.Seq != seq {
		panic(c.protocolError(from, "message has sequence number %d, want %d (collective order)", m.Seq, seq))
	}
	return m
}

// protocolError is the *CommError of a peer that broke the collective
// protocol.
func (c *Comm) protocolError(peer int, format string, args ...any) *CommError {
	return &CommError{Rank: c.rank, Peer: peer, Err: &ProtocolError{Detail: fmt.Sprintf(format, args...)}}
}

// nextSeq advances this rank's collective counter. All ranks execute the
// same collective sequence, so counters stay aligned. It starts a
// collective, so the payloads the last one received go back to their
// senders.
func (c *Comm) nextSeq() uint64 {
	if c.ch != nil {
		c.ch.release()
	}
	c.seq++
	return c.seq
}

// vrank maps a rank into the binomial tree rooted at root.
func vrank(rank, root, size int) int { return (rank - root + size) % size }
func unvrank(v, root, size int) int  { return (v + root) % size }

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier(class CommClass) {
	t := c.rec.BeginCollective()
	defer c.rec.EndCollective(int(class), t)
	seq := c.nextSeq()
	size := c.size
	if size == 1 {
		c.meter.addOp(class, 0)
		return
	}
	v := vrank(c.rank, 0, size)
	// Reduce phase (children → parent), then broadcast phase.
	for mask := 1; mask < size; mask <<= 1 {
		if v&mask != 0 {
			c.send(unvrank(v&^mask, 0, size), Message{Seq: seq})
			break
		}
		if v|mask < size {
			c.recv(unvrank(v|mask, 0, size), seq)
		}
	}
	c.bcastTree(seq, 0, Message{Seq: seq}, nil)
	if c.rank == 0 {
		c.meter.addOp(class, 0)
	}
}

// bcastTree distributes m down the binomial tree from root; non-roots
// first receive, storing into *out if non-nil. The tree is the standard
// binomial broadcast: a vrank's parent clears its lowest set bit, and a
// vrank forwards to v+2^j for every j below its lowest set bit (the whole
// range for the root).
func (c *Comm) bcastTree(seq uint64, root int, m Message, out *Message) {
	size := c.size
	v := vrank(c.rank, root, size)
	mask := 1
	for mask < size {
		if v&mask != 0 {
			got := c.recv(unvrank(v-mask, root, size), seq)
			if out != nil {
				*out = got
			}
			m = got
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if child := v + mask; child < size {
			c.send(unvrank(child, root, size), m)
		}
	}
	if v == 0 && out != nil {
		*out = m
	}
}

// Bcast broadcasts data from root; every rank returns the root's payload.
func (c *Comm) Bcast(root int, data []float64, class CommClass) []float64 {
	t := c.rec.BeginCollective()
	defer c.rec.EndCollective(int(class), t)
	seq := c.nextSeq()
	if c.rank == root {
		c.meter.addOp(class, 8*len(data))
	}
	if c.size == 1 {
		return data
	}
	var out Message
	c.bcastTree(seq, root, Message{Seq: seq, F64: data}, &out)
	return out.F64
}

// BcastBytes broadcasts a byte payload from root.
func (c *Comm) BcastBytes(root int, data []byte, class CommClass) []byte {
	t := c.rec.BeginCollective()
	defer c.rec.EndCollective(int(class), t)
	seq := c.nextSeq()
	if c.rank == root {
		c.meter.addOp(class, len(data))
	}
	if c.size == 1 {
		return data
	}
	var out Message
	c.bcastTree(seq, root, Message{Seq: seq, Raw: data}, &out)
	return out.Raw
}

// Reduce element-wise reduces data to root; root receives the result (in
// the Comm's accumulator), other ranks receive nil. The combination order
// is the fixed binomial tree order — independent of goroutine scheduling.
func (c *Comm) Reduce(root int, data []float64, op Op, class CommClass) []float64 {
	t := c.rec.BeginCollective()
	defer c.rec.EndCollective(int(class), t)
	seq := c.nextSeq()
	if c.rank == root {
		c.meter.addOp(class, 8*len(data))
	}
	size := c.size
	if size == 1 {
		// No combination happens in a single-rank world; return the
		// caller's own slice rather than a copy so the steady-state
		// serial path stays allocation-free.
		return data
	}
	acc := append(c.acc[:0], data...)
	c.acc = acc
	v := vrank(c.rank, root, size)
	for mask := 1; mask < size; mask <<= 1 {
		if v&mask != 0 {
			c.send(unvrank(v&^mask, root, size), Message{Seq: seq, F64: acc})
			return nil
		}
		if v|mask < size {
			from := unvrank(v|mask, root, size)
			m := c.recv(from, seq)
			if len(m.F64) != len(acc) {
				panic(c.protocolError(from, "reduce operand of %d values, want %d", len(m.F64), len(acc)))
			}
			for i := range acc {
				acc[i] = op.apply(acc[i], m.F64[i])
			}
		}
	}
	return acc
}

// Allreduce reduces and redistributes: every rank returns bit-identical
// results. Implemented as Reduce-to-0 + Bcast, the composition that
// guarantees the replica-consistency property of §III-B.
func (c *Comm) Allreduce(data []float64, op Op, class CommClass) []float64 {
	t := c.rec.BeginCollective()
	defer c.rec.EndCollective(int(class), t)
	red := c.Reduce(0, data, op, class)
	// The broadcast leg of an Allreduce is part of the same logical
	// operation; meter only the reduce leg (payload counted once, as the
	// paper does: "an MPI_Allreduce on 3 MPI_DOUBLE values is counted as
	// 24 bytes").
	seq := c.nextSeq()
	if c.size == 1 {
		return red
	}
	var out Message
	c.bcastTree(seq, 0, Message{Seq: seq, F64: red}, &out)
	return out.F64
}
