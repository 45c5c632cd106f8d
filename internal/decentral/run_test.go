package decentral

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/enginecore"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/search"
	"repro/internal/seqgen"
)

func makeDataset(t testing.TB, nTaxa, nParts, geneLen int, seed int64) *msa.Dataset {
	t.Helper()
	res, err := seqgen.Generate(seqgen.PartitionedGenes(nTaxa, nParts, geneLen, seed))
	if err != nil {
		t.Fatal(err)
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRunSequentialGamma(t *testing.T) {
	d := makeDataset(t, 8, 2, 60, 1)
	res, stats, err := Run(d, enginecore.RunConfig{
		Search: search.Config{Het: model.Gamma, Seed: 7, MaxIterations: 2},
		Ranks:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.LnL) || math.IsInf(res.LnL, 0) || res.LnL >= 0 {
		t.Fatalf("lnL = %g", res.LnL)
	}
	if err := res.Tree.Check(); err != nil {
		t.Fatal(err)
	}
	if stats.TotalColumns == 0 {
		t.Fatal("no kernel work recorded")
	}
	if len(res.PerPartitionLnL) != 2 {
		t.Fatalf("per-partition lnL: %v", res.PerPartitionLnL)
	}
	if s := res.PerPartitionLnL[0] + res.PerPartitionLnL[1]; math.Abs(s-res.LnL) > 1e-9 {
		t.Fatalf("per-partition sums %g != total %g", s, res.LnL)
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	// Across *rank counts*, summation order changes, so results agree to
	// floating-point tolerance (exactly as in real MPI codes) — bitwise
	// identity is guaranteed only across the replicas of a single run,
	// which Run checks internally on every call.
	d := makeDataset(t, 10, 3, 50, 2)
	cfg := search.Config{Het: model.Gamma, Seed: 3, MaxIterations: 2}

	ref, _, err := Run(d, enginecore.RunConfig{Search: cfg, Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2, 5} {
		got, stats, err := Run(d, enginecore.RunConfig{Search: cfg, Ranks: ranks})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if math.Abs(got.LnL-ref.LnL) > 1e-6*math.Abs(ref.LnL) {
			t.Errorf("ranks=%d: lnL %.12f != sequential %.12f", ranks, got.LnL, ref.LnL)
		}
		if stats.Comm.Bytes[mpi.ClassTraversal] != 0 {
			t.Errorf("ranks=%d: decentral scheme broadcast %d descriptor bytes", ranks, stats.Comm.Bytes[mpi.ClassTraversal])
		}
		if stats.Comm.Bytes[mpi.ClassModelParams] != 0 {
			t.Errorf("ranks=%d: decentral Γ run sent %d model-param bytes", ranks, stats.Comm.Bytes[mpi.ClassModelParams])
		}
	}
}

func TestRunPSR(t *testing.T) {
	d := makeDataset(t, 8, 2, 40, 5)
	cfg := search.Config{Het: model.PSR, Seed: 11, MaxIterations: 2}
	ref, _, err := Run(d, enginecore.RunConfig{Search: cfg, Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Run(d, enginecore.RunConfig{Search: cfg, Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.LnL-ref.LnL) > 1e-6*math.Abs(ref.LnL) {
		t.Errorf("PSR: lnL %.12f (3 ranks) != %.12f (sequential)", got.LnL, ref.LnL)
	}
}

func TestRunPerPartitionBranches(t *testing.T) {
	d := makeDataset(t, 8, 3, 40, 6)
	cfg := search.Config{Het: model.Gamma, PerPartitionBranches: true, Seed: 13, MaxIterations: 1}
	ref, _, err := Run(d, enginecore.RunConfig{Search: cfg, Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Run(d, enginecore.RunConfig{Search: cfg, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.LnL-ref.LnL) > 1e-6*math.Abs(ref.LnL) {
		t.Errorf("-M: lnL differs: %.12f vs %.12f", got.LnL, ref.LnL)
	}
	if ref.Tree.BLClasses != 3 {
		t.Fatalf("BLClasses = %d", ref.Tree.BLClasses)
	}
	// Per-partition branch lengths must actually differ across classes
	// after optimization.
	same := true
	for _, e := range ref.Tree.Edges() {
		if e.Length(0) != e.Length(1) || e.Length(1) != e.Length(2) {
			same = false
			break
		}
	}
	if same {
		t.Error("per-partition branch lengths never diverged")
	}
}

// TestRunWholePartitionRanks: six partitions on three ranks are laid out
// mostly whole, some ranks holding no pattern of a partition at all, and
// the run agrees with the one-rank run on the likelihood.
func TestRunWholePartitionRanks(t *testing.T) {
	d := makeDataset(t, 8, 6, 30, 7)
	a, err := enginecore.Assignment(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if most, split := a.Layout(); most > 4 || split > 2 {
		t.Fatalf("at most %d partitions per rank, %d split: %+v", most, split, a.PerRank)
	}
	cfg := search.Config{Het: model.Gamma, Seed: 17, MaxIterations: 1}
	ref, _, err := Run(d, enginecore.RunConfig{Search: cfg, Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Run(d, enginecore.RunConfig{Search: cfg, Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.LnL-ref.LnL) > 1e-6*math.Abs(ref.LnL) {
		t.Errorf("3 ranks: lnL %.9f vs one rank %.9f", got.LnL, ref.LnL)
	}
}

func TestSearchImprovesLikelihood(t *testing.T) {
	// The search must improve on the starting tree's likelihood and
	// ideally recover a topology close to the truth.
	res, err := seqgen.Generate(seqgen.Config{
		NTaxa:            9,
		Specs:            []seqgen.Spec{{Name: "g", NSites: 400, Alpha: 1}},
		Seed:             21,
		MeanBranchLength: 0.08,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	// Score the random starting tree (no topology moves, no model opt).
	flat, _, err := Run(d, enginecore.RunConfig{
		Search: search.Config{Het: model.Gamma, Seed: 5, MaxIterations: 1, SkipTopology: true},
		Ranks:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := Run(d, enginecore.RunConfig{
		Search: search.Config{Het: model.Gamma, Seed: 5, MaxIterations: 8},
		Ranks:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.LnL < flat.LnL {
		t.Fatalf("SPR search made things worse: %f < %f", full.LnL, flat.LnL)
	}
	if full.Iterations < 1 {
		t.Fatal("no iterations recorded")
	}
}

func TestThreadedSearchMatchesSerial(t *testing.T) {
	// Intra-rank threading must not move a single bit of the search
	// outcome: unlike changing the rank count (which re-associates the
	// cross-rank Allreduce), the per-block ordered reduction is exactly
	// the serial summation — so the whole search trajectory, final
	// likelihood, and topology are bitwise equal at every thread count.
	// 2×800 sites keep each rank's partition share above one block, so
	// the threaded (multi-block) kernel path actually runs.
	d := makeDataset(t, 10, 2, 800, 9)
	cfg := search.Config{Het: model.Gamma, Seed: 4, MaxIterations: 2}
	ref, _, err := Run(d, enginecore.RunConfig{Search: cfg, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	refNewick := ref.Tree.Newick()
	for _, threads := range []int{2, 4} {
		got, _, err := Run(d, enginecore.RunConfig{Search: cfg, Ranks: 2, Threads: threads})
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if math.Float64bits(got.LnL) != math.Float64bits(ref.LnL) {
			t.Errorf("threads=%d: lnL %.17g not bit-identical to serial %.17g", threads, got.LnL, ref.LnL)
		}
		if got.Tree.Newick() != refNewick {
			t.Errorf("threads=%d: topology differs from serial run", threads)
		}
	}
}

func TestThreadedHybridSearch(t *testing.T) {
	// The §V hybrid configuration is ranks × threads: four PSR ranks at
	// three threads each must be bitwise equal to the same four ranks
	// with serial kernels — the only multi-rank PSR check of the
	// threads bit-identity promise.
	d := makeDataset(t, 9, 2, 600, 10)
	cfg := search.Config{Het: model.PSR, Seed: 8, MaxIterations: 2}
	ref, _, err := Run(d, enginecore.RunConfig{Search: cfg, Ranks: 4, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Run(d, enginecore.RunConfig{Search: cfg, Ranks: 4, Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.LnL) != math.Float64bits(ref.LnL) {
		t.Errorf("ranks×threads lnL %.17g not bit-identical to serial kernels %.17g", got.LnL, ref.LnL)
	}
	if got.Tree.Newick() != ref.Tree.Newick() {
		t.Error("ranks×threads topology differs from the serial-kernel run")
	}
}

// TestOversubscribedRanksKeepPace: two ranks of two threads each on two
// processors are four goroutines for two Ps. A rank's polling worker
// yields between polls, so neither the other rank nor its own dispatcher
// waits a scheduler time slice for a P: the inference must finish within
// 3× of the same two ranks at one thread each (it measures about 1×),
// with the same bits.
func TestOversubscribedRanksKeepPace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	d := makeDataset(t, 10, 1, 1500, 10)
	cfg := search.Config{Het: model.PSR, Seed: 8, MaxIterations: 2}
	run := func(threads int) (*search.Result, time.Duration) {
		best := time.Duration(1 << 62)
		var res *search.Result
		for rep := 0; rep < 2; rep++ {
			t0 := time.Now()
			r, _, err := Run(d, enginecore.RunConfig{Search: cfg, Ranks: 2, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			res, best = r, min(best, time.Since(t0))
		}
		return res, best
	}
	ref, serial := run(1)
	got, threaded := run(2)
	t.Logf("2 ranks on 2 procs: T=1 %v, T=2 %v (%.2fx)", serial, threaded, float64(threaded)/float64(serial))
	if threaded > 3*serial {
		t.Errorf("2 ranks x 2 threads on 2 processors took %v, more than 3x the %v of 2 ranks x 1 thread", threaded, serial)
	}
	if math.Float64bits(got.LnL) != math.Float64bits(ref.LnL) || got.Tree.Newick() != ref.Tree.Newick() {
		t.Errorf("2 x 2 threads: lnL %.17g, 2 x 1: %.17g, or another tree", got.LnL, ref.LnL)
	}
}
