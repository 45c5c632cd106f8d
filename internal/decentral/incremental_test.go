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

// requireIdenticalRuns asserts two finished searches are bit-identical:
// same likelihood bits, same per-partition breakdown, same topology,
// same iteration count.
func requireIdenticalRuns(t *testing.T, label string, got, want *search.Result) {
	t.Helper()
	if math.Float64bits(got.LnL) != math.Float64bits(want.LnL) {
		t.Errorf("%s: lnL %.17g not bit-identical to forced-full %.17g", label, got.LnL, want.LnL)
	}
	if got.Tree.Newick() != want.Tree.Newick() {
		t.Errorf("%s: topology differs from forced-full run", label)
	}
	if got.Iterations != want.Iterations {
		t.Errorf("%s: %d iterations vs forced-full %d", label, got.Iterations, want.Iterations)
	}
	for i := range want.PerPartitionLnL {
		if math.Float64bits(got.PerPartitionLnL[i]) != math.Float64bits(want.PerPartitionLnL[i]) {
			t.Errorf("%s: partition %d lnL differs: %.17g vs %.17g",
				label, i, got.PerPartitionLnL[i], want.PerPartitionLnL[i])
		}
	}
}

// TestIncrementalMatchesForcedFull is the incremental-traversal
// determinism contract (docs/PERFORMANCE.md): the default dirty-overlay
// full-tree evaluations must reproduce the ForceFullTraversals
// trajectory bit-for-bit — same tree, same likelihood bits, same
// iteration count — for both rate models and across thread counts,
// while scheduling strictly fewer CLV recomputations. Replica
// consistency of the incremental run is asserted by Run itself.
func TestIncrementalMatchesForcedFull(t *testing.T) {
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		for _, threads := range []int{1, 4} {
			d := makeDataset(t, 12, 2, 70, 9)
			cfg := search.Config{Het: het, Seed: 17, MaxIterations: 3}

			forcedCfg := cfg
			forcedCfg.ForceFullTraversals = true
			forced, fStats, err := Run(d, enginecore.RunConfig{Search: forcedCfg, Ranks: 2, Threads: threads})
			if err != nil {
				t.Fatalf("%v T=%d forced: %v", het, threads, err)
			}
			inc, iStats, err := Run(d, enginecore.RunConfig{Search: cfg, Ranks: 2, Threads: threads})
			if err != nil {
				t.Fatalf("%v T=%d incremental: %v", het, threads, err)
			}
			label := het.String()
			requireIdenticalRuns(t, label, inc, forced)
			if iStats.TotalColumns >= fStats.TotalColumns {
				t.Errorf("%s T=%d: incremental scheduled %d columns, forced %d — no work was reused",
					label, threads, iStats.TotalColumns, fStats.TotalColumns)
			}
		}
	}
}

// TestIncrementalMatchesForcedFullTCP crosses the two switches the
// determinism contract quantifies over: a forced-full in-process run
// versus an incremental run with one mpinet TCP endpoint per rank must
// still agree on every bit.
func TestIncrementalMatchesForcedFullTCP(t *testing.T) {
	d := makeDataset(t, 10, 2, 60, 4)
	cfg := search.Config{Het: model.Gamma, Seed: 23, MaxIterations: 2}
	const ranks = 3

	forcedCfg := cfg
	forcedCfg.ForceFullTraversals = true
	forced, _, err := Run(d, enginecore.RunConfig{Search: forcedCfg, Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}

	addr := reserveLoopbackAddr(t)
	results := make([]*search.Result, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := mpinet.Connect(mpinet.Config{Rank: rank, Size: ranks, Addr: addr, Nonce: 57})
			if err != nil {
				errs[rank] = err
				return
			}
			c := mpi.NewComm(tr, rank, ranks, mpi.NewMeter())
			defer c.Close()
			res, _, err := RunOnComm(c, d, enginecore.RunConfig{Search: cfg, Ranks: ranks})
			results[rank], errs[rank] = res, err
		}(r)
	}
	wg.Wait()
	for r := 0; r < ranks; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		requireIdenticalRuns(t, "tcp", results[r], forced)
	}
}
