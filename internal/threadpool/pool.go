// Package threadpool provides the intra-rank shared-memory worker pool of
// the §V hybrid parallelization scheme: on top of the de-centralized
// (or fork-join) distribution of patterns *across* ranks, each rank splits
// every engine call over T worker goroutines *within* the rank — the Go
// analogue of ExaML's MPI/PThreads hybrid.
//
// The pool's unit of work is an item of one dispatch: the caller numbers
// the independent pieces of an engine call — (kernel, pattern block)
// pairs, each of which runs the kernel's whole staged program over one
// fixed-size block — and the pool hands the numbers out. Block boundaries
// depend only on the pattern count, never on the thread count or on
// scheduling, which is what lets callers keep the repo-wide bit-identity
// contract (docs/DETERMINISM.md): items either write disjoint ranges or
// deposit partial results into their own slots, which the caller combines
// in index order after Dispatch returns. Under that discipline the result
// is byte-for-byte identical for every T, including the serial T≤1 path.
//
// Both of the paper's schemes hand a worker a whole descriptor and
// synchronize once, at the reduction. The pool does the same inside a
// rank: one Dispatch per engine call, a worker woken at most once per
// call and — because the next call usually follows within microseconds —
// held between calls by a bounded spin instead of a sleep.
package threadpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// BlockSize is the fixed number of items (site patterns) per block. It is
// a determinism constant, not a tuning knob: changing it changes the
// association order of block-combined reductions and therefore the bits
// of every likelihood in the repo.
//
// It also happens to be a good cache size: one Γ block touches
// 256 sites × 16 doubles × 3 CLVs ≈ 96 KiB — it streams through a
// per-core L2 without thrashing L1, which is the granularity the
// SoA stride-1 kernels are unrolled for (docs/PERFORMANCE.md §6).
const BlockSize = 256

// NumBlocks returns the number of fixed-size blocks covering n items.
func NumBlocks(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + BlockSize - 1) / BlockSize
}

// BlockBounds returns block b's half-open item range within n items.
func BlockBounds(b, n int) (lo, hi int) {
	lo = b * BlockSize
	hi = lo + BlockSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Waiting. Both waits of a dispatch — an idle worker's for the next
// job, the dispatcher's for the last item — poll an atomic word. A poll
// costs about a nanosecond and touches only a shared cache line, so a
// hand-off to a polling goroutine takes a cache miss, where a parked one
// costs a futex round trip and a scheduler pass on both sides, and on the
// 2-vCPU guest the repo is measured on often much more: the kernel likes
// to put the woken thread on the waker's CPU, and the two then share it
// until the next load balance (BenchmarkDispatch: parked against
// polling). Two rules keep polling from costing anybody else a processor:
//
//   - after every pollsPerYield polls (about 2 µs) the waiter yields its P,
//     so a runnable goroutine — the dispatcher itself under GOMAXPROCS(1),
//     another in-process rank's — waits microseconds for it, never a
//     scheduler time slice;
//   - a worker that has yielded yieldsBeforePark times without seeing a
//     job parks. The budget is counted in polls the worker actually made,
//     not in wall time, so a worker the kernel descheduled does not park
//     for the time it was away. 1024 yields is about two milliseconds on
//     an idle machine: many times what a wake costs (the ski-rental bound
//     says at least once), long enough to cover the pauses an inference
//     has between engine calls — staging the next call's tables, a Newton
//     update, tree surgery, a collective among in-process ranks — and
//     short enough that a rank blocked on the network or between jobs
//     holds no CPU.
const (
	pollsPerYield    = 2048
	yieldsBeforePark = 1024
)

// Stats counts pool activity for telemetry: dispatches that went to the
// workers (fewer than two items run inline and are not counted), the
// items they comprised, the parked workers those dispatches had to wake,
// and how often a worker's poll ran out and it parked. Items over
// dispatches·threads is the block-utilization metric; wakes over
// dispatches says how often the spin budget was too short.
type Stats struct {
	Dispatches, Items, Wakes, Parks int64
}

// Pool owns threads−1 persistent worker goroutines; the goroutine calling
// Dispatch participates as worker 0, so a pool of 1 has no workers and
// executes everything inline. A nil *Pool is valid and also serial —
// callers constructed without a pool need no special casing.
//
// A pool has ONE dispatcher: a rank drives its pool from its own
// goroutine, and items must not dispatch on the pool that runs them.
// Dispatch panics on a second, concurrent or nested, call — a state only
// a bug can produce: nothing a user supplies decides which goroutine
// calls an engine.
type Pool struct {
	threads int

	// fn is the job in flight. The dispatcher writes it before publishing
	// the job in state; a worker reads it only after claiming an item, and
	// the dispatcher does not return before every claimed item is done.
	fn func(worker, item int)

	_ [64]byte
	// state is itemCount<<32 | nextItem. It describes the job completely:
	// a claim is a compare-and-swap of next → next+1 while next < count,
	// so a worker that read a stale word either fails the swap or, if the
	// word has come round again, claims a real item of the current job.
	state atomic.Uint64
	_     [56]byte
	// done counts the current job's completed items; the dispatcher joins
	// on it.
	done atomic.Int64
	_    [56]byte

	busy   atomic.Bool // a Dispatch is in flight
	closed atomic.Bool

	// Parking. A worker registers in asleep under mu, re-checks state and
	// waits on wake; the dispatcher publishes state and then reads asleep,
	// so one of the two always sees the other (no lost wake-up). asleep is
	// the number of workers inside Wait that nobody has signaled yet.
	mu     sync.Mutex
	wake   *sync.Cond
	asleep atomic.Int32
	exited sync.WaitGroup

	// dispatches, items and wakes belong to the dispatcher's goroutine;
	// parks is bumped by workers.
	dispatches, items, wakes int64
	parks                    atomic.Int64
}

// New builds a pool executing up to threads items concurrently. Values
// ≤ 1 yield a serial pool with no worker goroutines. Call Close to
// release the workers.
func New(threads int) *Pool {
	p := &Pool{threads: threads}
	p.wake = sync.NewCond(&p.mu)
	for w := 1; w < threads; w++ {
		p.exited.Add(1)
		go p.worker(w)
	}
	return p
}

// Threads reports the pool's concurrency (1 for a nil or serial pool).
func (p *Pool) Threads() int {
	if p == nil || p.threads < 1 {
		return 1
	}
	return p.threads
}

// Stats returns the pool's activity counters. Call it from the
// dispatcher's goroutine, between dispatches. Nil-pool safe.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return Stats{Dispatches: p.dispatches, Items: p.items, Wakes: p.wakes, Parks: p.parks.Load()}
}

// Parked reports how many workers are parked right now.
func (p *Pool) Parked() int {
	if p == nil {
		return 0
	}
	return int(p.asleep.Load())
}

// Dispatch invokes fn(worker, item) once for every item of [0, n),
// distributing items across the pool and the calling goroutine, and
// returns after every item completed (the join). worker is the index of
// the goroutine running the item — 0 for the caller, 1..Threads()−1 for
// the pool's own — so that fn can keep per-worker state without
// synchronization. Items are claimed from a shared cursor, so assignment
// to workers is dynamic (load balanced); callers preserve bit-identity by
// depositing per-item results into per-item slots and combining them in
// item order after Dispatch returns. Fewer than two items, and every
// dispatch on a nil or serial pool, run inline on the caller in index
// order. One dispatcher at a time: see Pool.
func (p *Pool) Dispatch(n int, fn func(worker, item int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.threads <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	if !p.busy.CompareAndSwap(false, true) {
		panic("threadpool: Dispatch while another Dispatch on the same pool is in flight (a pool has one dispatcher, and items must not dispatch)")
	}
	if n < 2 {
		fn(0, 0)
		p.busy.Store(false)
		return
	}
	p.fn = fn
	p.done.Store(0)
	p.state.Store(uint64(n) << 32)
	p.dispatches++
	p.items += int64(n)
	if p.asleep.Load() > 0 {
		p.mu.Lock()
		// Under mu every registered worker is inside Wait. No more of them
		// than there is work for besides the caller's share.
		a := min(int(p.asleep.Load()), n-1)
		for i := 0; i < a; i++ {
			p.wake.Signal()
		}
		p.asleep.Add(int32(-a))
		p.mu.Unlock()
		p.wakes += int64(a)
	}
	p.drain(0)
	for polls := 1; p.done.Load() != int64(n); polls++ {
		if polls%pollsPerYield == 0 {
			runtime.Gosched()
		}
	}
	p.busy.Store(false)
}

// drain claims and runs items of the job in flight until none is left.
func (p *Pool) drain(worker int) {
	for {
		s := p.state.Load()
		if uint32(s) >= uint32(s>>32) {
			return
		}
		if !p.state.CompareAndSwap(s, s+1) {
			continue
		}
		p.fn(worker, int(uint32(s)))
		p.done.Add(1)
	}
}

// worker is the persistent loop of one pool goroutine.
func (p *Pool) worker(w int) {
	defer p.exited.Done()
	for p.await() {
		p.drain(w)
	}
}

// await returns true once the job in flight has an unclaimed item, false
// once the pool is closed. It polls, yielding the processor every
// pollsPerYield polls, and parks after yieldsBeforePark yields until a
// dispatch wakes it.
func (p *Pool) await() bool {
	for polls := 1; ; polls++ {
		if s := p.state.Load(); uint32(s) < uint32(s>>32) {
			return true
		}
		if p.closed.Load() {
			return false
		}
		if polls%pollsPerYield != 0 {
			continue
		}
		if polls < pollsPerYield*yieldsBeforePark {
			runtime.Gosched()
			continue
		}
		p.park()
		polls = 0
	}
}

// park blocks the calling worker until a dispatch signals it, unless work
// or Close arrived while it was registering. Whoever signals a worker
// takes it off the asleep count, so the count never includes a worker
// that is already on its way back.
func (p *Pool) park() {
	p.mu.Lock()
	p.asleep.Add(1)
	if s := p.state.Load(); uint32(s) >= uint32(s>>32) && !p.closed.Load() {
		p.parks.Add(1)
		p.wake.Wait()
	} else {
		p.asleep.Add(-1)
	}
	p.mu.Unlock()
}

// Close shuts the worker goroutines down and returns once they have
// exited. Idempotent and nil-safe; the pool must not be dispatched on
// after Close.
func (p *Pool) Close() {
	if p == nil || p.closed.Swap(true) {
		return
	}
	p.mu.Lock()
	p.wake.Broadcast()
	p.asleep.Store(0)
	p.mu.Unlock()
	p.exited.Wait()
}
