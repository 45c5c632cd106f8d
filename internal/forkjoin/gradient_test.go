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

// requireIdentical asserts two full search results agree bit-for-bit.
func requireIdentical(t *testing.T, label string, got, want *search.Result) {
	t.Helper()
	if math.Float64bits(got.LnL) != math.Float64bits(want.LnL) {
		t.Errorf("%s: lnL %.17g not bit-identical to %.17g", label, got.LnL, want.LnL)
	}
	for p := range want.PerPartitionLnL {
		if math.Float64bits(got.PerPartitionLnL[p]) != math.Float64bits(want.PerPartitionLnL[p]) {
			t.Errorf("%s: partition %d lnL not bit-identical", label, p)
		}
	}
	if got.Tree.Newick() != want.Tree.Newick() {
		t.Errorf("%s: topology differs", label)
	}
	if got.Iterations != want.Iterations {
		t.Errorf("%s: %d iterations vs %d", label, got.Iterations, want.Iterations)
	}
}

// TestBatchedGradientAblationBitIdentical is the fork-join half of the
// batched-gradient determinism contract (docs/DETERMINISM.md §7): the
// batched all-branch gradient smoother (the default) must reproduce
// the per-branch oracle run bit-for-bit, for both rate models and
// serial and threaded kernels — while spending strictly fewer
// branch-length parallel regions.
func TestBatchedGradientAblationBitIdentical(t *testing.T) {
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		for _, threads := range []int{1, 4} {
			d := makeDataset(t, 12, 2, 70, 9)
			cfg := search.Config{Het: het, Seed: 17, MaxIterations: 2}

			oracleCfg := cfg
			oracleCfg.DisableBatchedGradients = true
			oracle, oracleStats, err := Run(d, enginecore.RunConfig{Search: oracleCfg, Ranks: 2, Threads: threads})
			if err != nil {
				t.Fatalf("%v T=%d oracle: %v", het, threads, err)
			}
			batched, batchedStats, err := Run(d, enginecore.RunConfig{Search: cfg, Ranks: 2, Threads: threads})
			if err != nil {
				t.Fatalf("%v T=%d batched: %v", het, threads, err)
			}
			requireIdentical(t, het.String()+" batched vs oracle", batched, oracle)

			bOps := batchedStats.Comm.Ops[mpi.ClassBranchLength]
			oOps := oracleStats.Comm.Ops[mpi.ClassBranchLength]
			if bOps >= oOps {
				t.Errorf("%v T=%d: batched run spent %d branch-length collectives, oracle %d — want strictly fewer",
					het, threads, bOps, oOps)
			}
		}
	}
}

// TestBatchedGradientOverTCPBitIdentical runs the batched-gradient
// fork-join inference with every rank on a real mpinet TCP endpoint
// (so the gradient plan actually crosses the encode/decode wire) and
// compares the master's result against the in-process per-branch
// oracle run.
func TestBatchedGradientOverTCPBitIdentical(t *testing.T) {
	d := makeDataset(t, 8, 2, 60, 3)
	const ranks = 3
	cfg := search.Config{Het: model.Gamma, Seed: 7, MaxIterations: 2}
	oracleCfg := cfg
	oracleCfg.DisableBatchedGradients = true
	ref, _, err := Run(d, enginecore.RunConfig{Search: oracleCfg, Ranks: ranks})
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
			tr, err := mpinet.Connect(mpinet.Config{Rank: rank, Size: ranks, Addr: addr, Nonce: 103})
			if err != nil {
				errs[rank] = err
				return
			}
			c := mpi.NewComm(tr, rank, ranks, mpi.NewMeter())
			defer c.Close()
			res, _, err := RunOnComm(c, d, enginecore.RunConfig{Search: cfg})
			results[rank], errs[rank] = res, err
		}(r)
	}
	wg.Wait()

	for r := 0; r < ranks; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
	}
	if results[0] == nil {
		t.Fatal("master returned no result")
	}
	requireIdentical(t, "TCP batched-gradient master", results[0], ref)
}
