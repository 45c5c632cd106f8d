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

// requireIdentical asserts two full search results agree bit-for-bit:
// final likelihood, per-partition breakdown, topology, and iteration
// count.
func requireIdentical(t *testing.T, label string, got, want *search.Result) {
	t.Helper()
	if math.Float64bits(got.LnL) != math.Float64bits(want.LnL) {
		t.Errorf("%s: lnL %.17g not bit-identical to %.17g", label, got.LnL, want.LnL)
	}
	if len(got.PerPartitionLnL) != len(want.PerPartitionLnL) {
		t.Fatalf("%s: per-partition length mismatch", label)
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

// TestBatchedGradientAblationBitIdentical is the de-centralized half of
// the batched-gradient determinism contract (docs/DETERMINISM.md §7): a
// full inference with the batched all-branch gradient smoother (the
// default) must reproduce the per-branch oracle run bit-for-bit, for
// both rate models and serial and threaded kernels — while spending
// strictly fewer branch-length collectives.
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

// TestBatchedGradientToggleMidRun flips the ablation switch between
// iterations of one run (via search.Searcher.SetBatchedGradients) and
// requires the result to stay bit-identical to an untouched default
// run: because both paths produce the same bits, switching them
// mid-stream must be invisible.
func TestBatchedGradientToggleMidRun(t *testing.T) {
	d := makeDataset(t, 12, 2, 70, 9)
	base := search.Config{Het: model.Gamma, Seed: 17, MaxIterations: 3}
	ref, _, err := Run(d, enginecore.RunConfig{Search: base, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	toggled := base
	toggled.OnIteration = func(s *search.Searcher, iter int, lnL float64) {
		// Every rank replica runs the hook with identical state, so the
		// flag flips consistently across the world: oracle on even
		// iterations, batched on odd.
		s.SetBatchedGradients(iter%2 == 1)
	}
	got, _, err := Run(d, enginecore.RunConfig{Search: toggled, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "mid-run gradient toggle", got, ref)
}

// TestBatchedGradientOverTCPBitIdentical runs the batched-gradient
// inference as one mpinet TCP endpoint per rank and compares against
// the in-process per-branch oracle: neither the wire transport nor the
// fused gradient path may show up in the result bits.
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
			tr, err := mpinet.Connect(mpinet.Config{Rank: rank, Size: ranks, Addr: addr, Nonce: 101})
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
		requireIdentical(t, "TCP batched-gradient rank", results[r], ref)
	}
}
