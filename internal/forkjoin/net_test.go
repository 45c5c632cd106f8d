package forkjoin

import (
	"math"
	"sync"
	"testing"

	"repro/internal/enginecore"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/mpinet"
	"repro/internal/search"
)

func reserveLoopbackAddr(t *testing.T) string {
	t.Helper()
	addr, err := mpinet.ReserveLoopbackAddr()
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestRunOnCommMatchesInProcess runs the fork-join scheme with each
// rank owning a real mpinet TCP endpoint: the master's result and the
// metered per-class traffic every rank reports must be bit-identical to
// the in-process goroutine world.
func TestRunOnCommMatchesInProcess(t *testing.T) {
	d := makeDataset(t, 8, 2, 60, 4)
	const ranks = 4
	cfg := enginecore.RunConfig{
		Search: search.Config{Het: model.Gamma, Seed: 7, MaxIterations: 2},
		Ranks:  ranks,
	}
	ref, refStats, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}

	addr := reserveLoopbackAddr(t)
	type out struct {
		res   *search.Result
		stats *enginecore.RunStats
		err   error
	}
	outs := make([]out, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := mpinet.Connect(mpinet.Config{Rank: rank, Size: ranks, Addr: addr, Nonce: 42})
			if err != nil {
				outs[rank].err = err
				return
			}
			c := mpi.NewComm(tr, rank, ranks, mpi.NewMeter())
			defer c.Close()
			res, stats, err := RunOnComm(c, d, cfg)
			outs[rank] = out{res, stats, err}
		}(r)
	}
	wg.Wait()

	for r, o := range outs {
		if o.err != nil {
			t.Fatalf("rank %d: %v", r, o.err)
		}
		if r == 0 {
			if o.res == nil {
				t.Fatal("master returned no result")
			}
			if math.Float64bits(o.res.LnL) != math.Float64bits(ref.LnL) {
				t.Errorf("master lnL %.17g not bit-identical to in-process %.17g", o.res.LnL, ref.LnL)
			}
			if o.res.Tree.Newick() != ref.Tree.Newick() {
				t.Error("master topology differs from in-process run")
			}
		} else if o.res != nil {
			t.Errorf("worker rank %d returned a result", r)
		}
		if o.stats.Comm != refStats.Comm {
			t.Errorf("rank %d: metered traffic differs from in-process run:\nTCP:\n%v\nin-process:\n%v", r, o.stats.Comm, refStats.Comm)
		}
		if o.stats.TotalColumns != refStats.TotalColumns || o.stats.CLVBytesTotal != refStats.CLVBytesTotal {
			t.Errorf("rank %d: kernel stats differ: %+v vs %+v", r, o.stats, refStats)
		}
	}
}
