package threadpool

import (
	"errors"
	"math/bits"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// cpuMask is a sched_{get,set}affinity CPU set.
type cpuMask [16]uint64

// firstCPU returns the lowest CPU the calling thread may run on.
func firstCPU() (int, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return 0, e
	}
	for i, w := range m {
		if w != 0 {
			return 64*i + bits.TrailingZeros64(w), nil
		}
	}
	return 0, errors.New("empty CPU set")
}

// pinToCPU locks the calling goroutine to its thread and the thread to
// cpu. The goroutine never unlocks, so the pinned thread ends with it.
func pinToCPU(cpu int) error {
	runtime.LockOSThread()
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return e
	}
	return nil
}

// TestTakenYieldOpensBusyWindow holds the busy-host rule with the real
// CPU yield. A rank's waiter whose thread shares its CPU with a CPU-bound
// thread has a yield taken for a time slice: it gives up polling well
// inside its budget and opens its Host's busy window, in which the next
// Poll on that Host checks its condition once. The pool's waiter (no
// Host) on the same CPU makes its whole budget, counted in polls.
func TestTakenYieldOpensBusyWindow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(3, runtime.GOMAXPROCS(0))))
	cpu, err := firstCPU()
	if err != nil {
		t.Skipf("no CPU affinity: %v", err)
	}
	var stop, spinning atomic.Bool
	spun := make(chan error, 1)
	go func() {
		if err := pinToCPU(cpu); err != nil {
			spun <- err
			return
		}
		spinning.Store(true)
		for !stop.Load() {
		}
		spun <- nil
	}()
	for !spinning.Load() {
		select {
		case err := <-spun:
			t.Skipf("cannot pin a thread to CPU %d: %v", cpu, err)
		case <-time.After(time.Millisecond):
		}
	}
	defer func() { stop.Store(true); <-spun }()

	type result struct {
		err                          error
		polled, inWindow, pool       int
		ready, readyInWindow, window bool
	}
	done := make(chan result)
	go func() {
		var r result
		if r.err = pinToCPU(cpu); r.err != nil {
			done <- r
			return
		}
		var h Host
		r.ready = Poll(func() bool { r.polled++; return false }, &h)
		r.window = h.busy(time.Since(epoch))
		r.readyInWindow = Poll(func() bool { r.inWindow++; return false }, &h)
		Poll(func() bool { r.pool++; return false }, nil)
		done <- r
	}()
	r := <-done
	if r.err != nil {
		t.Skipf("cannot pin a thread to CPU %d: %v", cpu, r.err)
	}
	budget := pollsPerYield * yieldsBeforePark
	if r.ready || r.polled >= budget || !r.window {
		t.Errorf("beside a CPU-bound thread: Poll returned %v after %d of %d polls, busy window open %v; want a taken yield to end it early and open the window", r.ready, r.polled, budget, r.window)
	}
	if r.readyInWindow || r.inWindow != 1 {
		t.Errorf("in the busy window: Poll returned %v after %d polls, want false after 1", r.readyInWindow, r.inWindow)
	}
	if r.pool != budget {
		t.Errorf("the pool's Poll beside a CPU-bound thread gave up after %d polls, want %d", r.pool, budget)
	}
}
