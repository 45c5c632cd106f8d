package mpi

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// exchange runs rounds Allreduces on w and returns every rank's receive
// counters. In a two-rank world each Allreduce is one receive per rank:
// rank 0 takes rank 1's operand, rank 1 takes the result.
func exchange(w *World, rounds int) []telemetry.RecvStats {
	stats := make([]telemetry.RecvStats, w.Size())
	w.Run(func(c *Comm) {
		for i := 0; i < rounds; i++ {
			c.Allreduce([]float64{float64(c.Rank() + i)}, OpSum, ClassLikelihoodEval)
		}
		stats[c.Rank()] = c.RecvStats()
	})
	return stats
}

// TestPollingWorldParksNoReceive: in a two-rank world with a processor
// for each rank, a receive whose peer answers within the poll budget is
// served by polling and parks nothing. Where the host cannot interfere —
// the peer's message queued before the receive, which Poll's first check
// sees — that holds for every receive, even while the host is busy. In
// a live exchange the ranks pass Allreduce operands back and forth
// within microseconds, but a peer the host keeps off its CPU for longer
// than the budget makes the receive park, so there the test wants every
// receive counted.
func TestPollingWorldParksNoReceive(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const rounds = 300
	w := NewWorld(2)
	if !w.poll {
		t.Fatalf("a 2-rank world under GOMAXPROCS(%d) does not poll", runtime.GOMAXPROCS(0))
	}
	c0, c1 := w.Comm(0), w.Comm(1)
	for i := 0; i < rounds; i++ {
		c1.tr.Send(0, Message{Seq: uint64(i)})
		if m, _ := c0.tr.Recv(1); m.Seq != uint64(i) {
			t.Fatalf("receive %d took message %d", i, m.Seq)
		}
	}
	if s := c0.RecvStats(); s != (telemetry.RecvStats{Polled: rounds}) {
		t.Errorf("%d queued messages: %+v, want every receive polled", rounds, s)
	}
	for r, s := range exchange(NewWorld(2), rounds) {
		if s.Polled+s.Parked != rounds {
			t.Errorf("rank %d of a live exchange: %+v, want %d receives", r, s, rounds)
		}
		if s.Parked != 0 {
			t.Logf("rank %d of a live exchange: %d of %d receives parked (host load)", r, s.Parked, rounds)
		}
	}
}

// TestOversubscribedWorldNeverPolls: when the ranks outnumber GOMAXPROCS
// a rank polling for its peer would hold the processor the peer needs,
// so every receive parks at once.
func TestOversubscribedWorldNeverPolls(t *testing.T) {
	w := NewWorld(runtime.GOMAXPROCS(0) + 1)
	if w.poll {
		t.Fatalf("a %d-rank world under GOMAXPROCS(%d) polls", w.Size(), runtime.GOMAXPROCS(0))
	}
	const rounds = 50
	var parked int64
	for r, s := range exchange(w, rounds) {
		if s.Polled != 0 {
			t.Errorf("rank %d: %+v, want no polled receive", r, s)
		}
		parked += s.Parked
	}
	if parked == 0 {
		t.Error("no receive was counted")
	}
}

// TestProtocolErrorsInEitherWorld: the sequence check and the reduce
// operand check raise a *CommError wrapping a *ProtocolError whether the
// receive that meets the stray message polled or parked.
func TestProtocolErrorsInEitherWorld(t *testing.T) {
	cases := []struct {
		name, want string
		rank       func(c *Comm)
	}{
		{"sequence", "collective order", func(c *Comm) {
			if c.Rank() == 1 {
				c.nextSeq() // desynchronize
			}
			c.Reduce(0, []float64{1}, OpSum, ClassControl)
		}},
		{"operand length", "reduce operand of 2 values, want 1", func(c *Comm) {
			c.Reduce(0, make([]float64, 1+c.Rank()), OpSum, ClassControl)
		}},
	}
	for _, poll := range []bool{false, true} {
		for _, tc := range cases {
			w := NewWorld(2)
			w.poll = poll
			errs := make([]error, 2)
			w.Run(func(c *Comm) {
				defer func() {
					if p := recover(); p != nil {
						errs[c.Rank()] = p.(*CommError)
					}
				}()
				tc.rank(c)
			})
			var pe *ProtocolError
			if !errors.As(errs[0], &pe) || !strings.Contains(pe.Detail, tc.want) {
				t.Errorf("poll=%v %s: rank 0 failed with %v, want a *ProtocolError naming %q", poll, tc.name, errs[0], tc.want)
			}
			if errs[1] != nil {
				t.Errorf("poll=%v %s: rank 1 failed with %v", poll, tc.name, errs[1])
			}
		}
	}
}

// TestRecvAllocatesNothing: a receive, polled or parked, allocates
// nothing — the engines' steady-state alloc tests run one-rank worlds,
// which never receive.
func TestRecvAllocatesNothing(t *testing.T) {
	for _, poll := range []bool{false, true} {
		w := NewWorld(2)
		w.poll = poll
		to, from := w.Comm(0).tr, w.Comm(1).tr
		if n := testing.AllocsPerRun(100, func() {
			from.Send(0, Message{Seq: 1})
			to.Recv(1)
		}); n != 0 {
			t.Errorf("poll=%v: a send and a receive allocate %v times", poll, n)
		}
	}
}
