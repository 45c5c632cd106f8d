package threadpool

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestNumBlocks(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {-5, 0}, {1, 1}, {BlockSize - 1, 1}, {BlockSize, 1},
		{BlockSize + 1, 2}, {4 * BlockSize, 4}, {4*BlockSize + 7, 5},
	}
	for _, c := range cases {
		if got := NumBlocks(c.n); got != c.want {
			t.Errorf("NumBlocks(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestRunCoversEveryItemOnce checks the block structure a kernel's items
// stand for: dispatching NumBlocks(n) items and taking each one's
// BlockBounds visits every pattern index exactly once at every thread
// count, including the nil-pool and serial paths.
func TestRunCoversEveryItemOnce(t *testing.T) {
	for _, threads := range []int{0, 1, 2, 3, 8, 17} {
		for _, n := range []int{1, BlockSize, BlockSize + 1, 3*BlockSize + 5, 10 * BlockSize} {
			var p *Pool
			if threads > 0 {
				p = New(threads)
			}
			visits := make([]int64, n)
			p.Dispatch(NumBlocks(n), func(_, block int) {
				lo, hi := BlockBounds(block, n)
				if lo != block*BlockSize {
					t.Errorf("block %d starts at %d", block, lo)
				}
				if hi-lo > BlockSize || hi <= lo || hi > n {
					t.Errorf("block %d bounds [%d,%d) of %d", block, lo, hi, n)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt64(&visits[i], 1)
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("threads=%d n=%d: item %d visited %d times", threads, n, i, v)
				}
			}
			p.Close()
		}
	}
}

// TestOrderedCombineIsThreadCountInvariant exercises the determinism
// discipline the kernels rely on: per-block partials deposited into a
// slot array and combined in block-index order must give bit-identical
// results at every thread count.
func TestOrderedCombineIsThreadCountInvariant(t *testing.T) {
	const n = 7*BlockSize + 13
	vals := make([]float64, n)
	for i := range vals {
		// Wildly varying magnitudes so association order matters.
		vals[i] = float64(i%97) * 1e-3 * float64(int64(1)<<uint(i%50))
	}
	sum := func(threads int) float64 {
		p := New(threads)
		defer p.Close()
		parts := make([]float64, NumBlocks(n))
		p.Dispatch(len(parts), func(_, block int) {
			lo, hi := BlockBounds(block, n)
			s := 0.0
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			parts[block] = s
		})
		total := 0.0
		for _, s := range parts {
			total += s
		}
		return total
	}
	ref := sum(1)
	for _, threads := range []int{2, 3, 8} {
		if got := sum(threads); got != ref {
			t.Errorf("threads=%d: sum %x differs from serial %x", threads, got, ref)
		}
	}
}

// TestEachCoversEveryItemOnce: every item index is visited exactly once
// at every thread count, including the nil-pool and serial paths, and by
// a worker index inside the pool's range that no two items hold at the
// same time — what lets an item keep per-worker state unsynchronized.
func TestEachCoversEveryItemOnce(t *testing.T) {
	for _, threads := range []int{0, 1, 2, 3, 8, 17} {
		for _, n := range []int{1, 2, 7, 64, 300} {
			var p *Pool
			if threads > 0 {
				p = New(threads)
			}
			visits := make([]int64, n)
			inUse := make([]atomic.Bool, p.Threads())
			for round := 0; round < 3; round++ {
				p.Dispatch(n, func(w, i int) {
					if w < 0 || w >= len(inUse) {
						t.Errorf("threads=%d: item %d ran as worker %d", threads, i, w)
						return
					}
					if inUse[w].Swap(true) {
						t.Errorf("threads=%d: two items ran as worker %d at once", threads, w)
					}
					atomic.AddInt64(&visits[i], 1)
					inUse[w].Store(false)
				})
			}
			for i, v := range visits {
				if v != 3 {
					t.Fatalf("threads=%d n=%d: item %d visited %d times in 3 dispatches", threads, n, i, v)
				}
			}
			p.Close()
		}
	}
	// Zero and negative counts are no-ops.
	New(2).Dispatch(0, func(int, int) { t.Error("fn called for n=0") })
	(*Pool)(nil).Dispatch(-3, func(int, int) { t.Error("fn called for n<0") })
}

// TestEachOrderedCombineIsThreadCountInvariant mirrors the block combine
// test at item granularity: per-item partials deposited into per-item
// slots and folded in item order must be bit-identical at any T.
func TestEachOrderedCombineIsThreadCountInvariant(t *testing.T) {
	const n = 61
	sum := func(threads int) float64 {
		p := New(threads)
		defer p.Close()
		parts := make([]float64, n)
		p.Dispatch(n, func(_, i int) {
			parts[i] = float64(i%13) * 1e-3 * float64(int64(1)<<uint(i%50))
		})
		total := 0.0
		for _, s := range parts {
			total += s
		}
		return total
	}
	ref := sum(1)
	for _, threads := range []int{2, 3, 8} {
		if got := sum(threads); got != ref {
			t.Errorf("threads=%d: sum %x differs from serial %x", threads, got, ref)
		}
	}
}

func TestThreads(t *testing.T) {
	if (*Pool)(nil).Threads() != 1 {
		t.Error("nil pool Threads != 1")
	}
	if New(0).Threads() != 1 {
		t.Error("New(0).Threads() != 1")
	}
	p := New(5)
	defer p.Close()
	if p.Threads() != 5 {
		t.Error("Threads() != 5")
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := New(4)
	p.Dispatch(4, func(int, int) {})
	p.Close()
	p.Close() // must not panic
	var nilPool *Pool
	nilPool.Close()
	New(1).Close()
}

// TestSecondDispatcherPanics: a pool has one dispatcher. A Dispatch that
// finds another in flight — here the nested one an item makes, which is
// the same state a second goroutine would find — panics with a message
// that says so instead of corrupting the job in flight; the outer
// dispatch still completes, and the pool keeps working afterwards.
func TestSecondDispatcherPanics(t *testing.T) {
	p := New(3)
	defer p.Close()
	for _, n := range []int{1, 5} {
		var refused atomic.Int64
		p.Dispatch(n, func(_, _ int) {
			defer func() {
				if msg, _ := recover().(string); strings.Contains(msg, "one dispatcher") {
					refused.Add(1)
				}
			}()
			p.Dispatch(1, func(int, int) { t.Error("nested dispatch ran an item") })
		})
		if got := refused.Load(); got != int64(n) {
			t.Errorf("n=%d: %d of %d nested dispatches were refused", n, got, n)
		}
	}
	var ran atomic.Int64
	p.Dispatch(9, func(int, int) { ran.Add(1) })
	if ran.Load() != 9 {
		t.Errorf("after the refusals a dispatch of 9 ran %d items", ran.Load())
	}
}

// TestIdleWorkersPark: a pool left alone for longer than the poll budget
// has every worker parked — an idle rank burns no CPU — and the next
// dispatch wakes no more of them than it has work for, each at most once.
func TestIdleWorkersPark(t *testing.T) {
	const threads = 4
	p := New(threads)
	defer p.Close()
	waitParked := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for p.Parked() != threads-1 {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d workers parked 10 s after the last dispatch", p.Parked(), threads-1)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitParked()
	if s := p.Stats(); s.Parks != threads-1 || s.Wakes != 0 || s.Dispatches != 0 {
		t.Fatalf("idle pool: %+v, want %d parks and nothing else", s, threads-1)
	}
	var ran atomic.Int64
	p.Dispatch(2, func(int, int) { ran.Add(1) })
	if s := p.Stats(); ran.Load() != 2 || s.Dispatches != 1 || s.Items != 2 || s.Wakes != 1 {
		t.Fatalf("2 items on a parked pool of %d: ran %d, %+v, want 1 dispatch waking 1 worker", threads, ran.Load(), s)
	}
	waitParked()
	p.Dispatch(100, func(int, int) { ran.Add(1) })
	if s := p.Stats(); ran.Load() != 102 || s.Wakes != 1+threads-1 {
		t.Fatalf("100 items on a parked pool of %d: ran %d in all, %+v, want %d wakes in all", threads, ran.Load(), s, threads)
	}
	// Back-to-back dispatches find the workers polling, not parked.
	before := p.Stats().Wakes
	for i := 0; i < 200; i++ {
		p.Dispatch(8, func(int, int) {})
	}
	if woken := p.Stats().Wakes - before; woken > 20 {
		t.Errorf("200 back-to-back dispatches woke workers %d times", woken)
	}
}

// TestPollBudget: Poll returns true on the call where ready first holds,
// and false after exactly pollsPerYield·yieldsBeforePark calls of a
// condition that never does — the budget is counted in polls, not time,
// so however long the host keeps the waiter's yields, it makes them all.
func TestPollBudget(t *testing.T) {
	for _, at := range []int{1, 2, pollsPerYield, pollsPerYield + 1} {
		calls := 0
		if !Poll(func() bool { calls++; return calls == at }, nil) || calls != at {
			t.Errorf("ready from call %d: Poll made %d calls", at, calls)
		}
	}
	calls := 0
	if Poll(func() bool { calls++; return false }, nil) {
		t.Fatal("Poll reported a condition that never held")
	}
	if calls != pollsPerYield*yieldsBeforePark {
		t.Errorf("Poll gave up after %d calls, want %d", calls, pollsPerYield*yieldsBeforePark)
	}
	if n := testing.AllocsPerRun(10, func() { Poll(func() bool { return true }, nil) }); n != 0 {
		t.Errorf("Poll allocates %v times per call", n)
	}
}

// spinWork is an item of roughly fixed CPU cost.
func spinWork(n int) float64 {
	x := 1.0
	for i := 0; i < n; i++ {
		x = x*1.0000001 + 1e-9
	}
	return x
}

var workSink atomic.Uint64

// TestOversubscribedPoolKeepsPace: four threads on one processor cannot
// be faster than one, but they must not be much slower either — a
// polling worker yields between polls, so it never holds the only P
// while the dispatcher (or the worker that owns the last item) waits for
// it. 400 dispatches of 6 items at T = 4 under GOMAXPROCS(1) finish
// within 3× of the same work on a serial pool.
func TestOversubscribedPoolKeepsPace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func(threads int) time.Duration {
		p := New(threads)
		defer p.Close()
		item := func(int, int) { workSink.Add(uint64(spinWork(20000))) }
		p.Dispatch(6, item)
		best := time.Duration(1 << 62)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			for i := 0; i < 400; i++ {
				p.Dispatch(6, item)
			}
			best = min(best, time.Since(t0))
		}
		return best
	}
	serial, pooled := run(1), run(4)
	t.Logf("GOMAXPROCS(1): T=1 %v, T=4 %v (%.2fx)", serial, pooled, float64(pooled)/float64(serial))
	if pooled > 3*serial {
		t.Errorf("T=4 on one processor took %v, more than 3x the serial pool's %v", pooled, serial)
	}
}

// BenchmarkDispatch measures one dispatch of small items on a pool whose
// workers are polling (back-to-back dispatches) and on one whose workers
// have parked (a pause longer than the spin budget before every
// dispatch; the pause itself is not timed). The difference is what a
// wake costs — what the poll budget is weighed against.
func BenchmarkDispatch(b *testing.B) {
	item := func(int, int) { workSink.Add(uint64(spinWork(2000))) }
	for _, parked := range []bool{false, true} {
		name := "spinning"
		if parked {
			name = "parked"
		}
		b.Run(name, func(b *testing.B) {
			p := New(2)
			defer p.Close()
			p.Dispatch(4, item)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if parked {
					b.StopTimer()
					for p.Parked() == 0 {
						time.Sleep(time.Millisecond)
					}
					b.StartTimer()
				}
				p.Dispatch(4, item)
			}
		})
	}
}

// BenchmarkPollBudget times a whole poll budget: Poll of a condition
// that never holds, its polls and its yields — of the P alone for the
// pool's waits, of the P and the CPU for a rank's (a fresh Host each
// time, so a taken yield shortens one budget only). On an idle machine
// this is how long a waiter polls before it parks.
func BenchmarkPollBudget(b *testing.B) {
	b.Run("pool", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Poll(func() bool { return false }, nil)
		}
	})
	b.Run("rank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Poll(func() bool { return false }, new(Host))
		}
	})
}
