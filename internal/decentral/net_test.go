package decentral

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

// reserveLoopbackAddr picks a free loopback port for a rendezvous.
func reserveLoopbackAddr(t *testing.T) string {
	t.Helper()
	addr, err := mpinet.ReserveLoopbackAddr()
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestRunOnCommMatchesInProcess is the §III-B property across a real
// wire: the same inference run as one OS process per rank over TCP
// must produce the bit-identical tree, likelihood, and per-CommClass
// metered byte counts as the in-process goroutine world. (The ranks
// here are goroutines for test cheapness, but each owns a full mpinet
// TCP endpoint — every collective crosses loopback sockets.)
func TestRunOnCommMatchesInProcess(t *testing.T) {
	d := makeDataset(t, 8, 2, 60, 3)
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
			tr, err := mpinet.Connect(mpinet.Config{Rank: rank, Size: ranks, Addr: addr, Nonce: 41})
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

	refNewick := ref.Tree.Newick()
	for r, o := range outs {
		if o.err != nil {
			t.Fatalf("rank %d: %v", r, o.err)
		}
		if math.Float64bits(o.res.LnL) != math.Float64bits(ref.LnL) {
			t.Errorf("rank %d: lnL %.17g not bit-identical to in-process %.17g", r, o.res.LnL, ref.LnL)
		}
		if o.res.Tree.Newick() != refNewick {
			t.Errorf("rank %d: topology differs from in-process run", r)
		}
		if o.stats.Comm != refStats.Comm {
			t.Errorf("rank %d: metered traffic differs from in-process run:\nTCP:\n%v\nin-process:\n%v", r, o.stats.Comm, refStats.Comm)
		}
		if o.stats.TotalColumns != refStats.TotalColumns ||
			o.stats.MaxRankColumns != refStats.MaxRankColumns ||
			o.stats.CLVBytesTotal != refStats.CLVBytesTotal {
			t.Errorf("rank %d: kernel stats differ: %+v vs %+v", r, o.stats, refStats)
		}
		if o.stats.MeasuredRanks != ranks {
			t.Errorf("rank %d: stats.MeasuredRanks = %d", r, o.stats.MeasuredRanks)
		}
	}
}
