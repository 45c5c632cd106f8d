package forkjoin

import (
	"math"
	"testing"

	"repro/internal/decentral"
	"repro/internal/enginecore"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/search"
	"repro/internal/seqgen"
	"repro/internal/tree"
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

func TestForkJoinRuns(t *testing.T) {
	d := makeDataset(t, 8, 2, 50, 1)
	res, stats, err := Run(d, enginecore.RunConfig{
		Search: search.Config{Het: model.Gamma, Seed: 7, MaxIterations: 2},
		Ranks:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.LnL) || res.LnL >= 0 {
		t.Fatalf("lnL = %g", res.LnL)
	}
	// Fork-join MUST broadcast traversal descriptors — that is the
	// defining traffic of the scheme.
	if stats.Comm.Bytes[mpi.ClassTraversal] == 0 {
		t.Error("no traversal descriptor traffic in a fork-join run")
	}
	if stats.Comm.Bytes[mpi.ClassModelParams] == 0 {
		t.Error("no model parameter broadcasts in a fork-join run")
	}
}

// TestEnginesAgree is the central reproduction check of §III-B: the two
// schemes implement *exactly the same search algorithm*.
//
// Under per-partition branch lengths (-M), both schemes communicate
// branch derivatives at per-partition granularity, so at equal rank
// counts every reduction associates identically and the results must be
// BIT-identical. Under joint branch lengths, ExaML reduces 2 doubles
// where RAxML-Light reduces 2·p (the paper's point!), so summation orders
// differ and agreement is to floating-point tolerance with the same final
// topology.
func TestEnginesAgree(t *testing.T) {
	cases := []struct {
		name string
		het  model.Heterogeneity
		perM bool
	}{
		{"gamma-joint", model.Gamma, false},
		{"gamma-perpartition", model.Gamma, true},
		{"psr-joint", model.PSR, false},
		{"psr-perpartition", model.PSR, true},
	}
	d := makeDataset(t, 9, 3, 40, 3)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := search.Config{
				Het:                  tc.het,
				PerPartitionBranches: tc.perM,
				Seed:                 5,
				MaxIterations:        2,
			}
			const ranks = 3
			fj, fjStats, err := Run(d, enginecore.RunConfig{Search: cfg, Ranks: ranks})
			if err != nil {
				t.Fatalf("forkjoin: %v", err)
			}
			dc, dcStats, err := decentral.Run(d, enginecore.RunConfig{Search: cfg, Ranks: ranks})
			if err != nil {
				t.Fatalf("decentral: %v", err)
			}
			if tc.perM {
				if math.Float64bits(fj.LnL) != math.Float64bits(dc.LnL) {
					t.Errorf("lnL differs bitwise: forkjoin %.17g vs decentral %.17g", fj.LnL, dc.LnL)
				}
				if fj.Tree.Newick() != dc.Tree.Newick() {
					t.Error("final trees differ between the engines")
				}
			} else {
				if math.Abs(fj.LnL-dc.LnL) > 1e-6*math.Abs(dc.LnL) {
					t.Errorf("lnL differs: forkjoin %.15g vs decentral %.15g", fj.LnL, dc.LnL)
				}
				rf, err := tree.RobinsonFoulds(fj.Tree, dc.Tree)
				if err != nil {
					t.Fatal(err)
				}
				if rf != 0 {
					t.Errorf("final topologies differ (RF=%d)", rf)
				}
			}
			if fj.Iterations != dc.Iterations {
				t.Errorf("iterations: %d vs %d", fj.Iterations, dc.Iterations)
			}
			// The paper's headline claim at the traffic level: fork-join
			// moves strictly more bytes (descriptors + parameters).
			if fjStats.Comm.TotalBytes() <= dcStats.Comm.TotalBytes() {
				t.Errorf("forkjoin bytes %d not greater than decentral %d",
					fjStats.Comm.TotalBytes(), dcStats.Comm.TotalBytes())
			}
			if dcStats.Comm.Bytes[mpi.ClassTraversal] != 0 {
				t.Error("decentral sent descriptor bytes")
			}
		})
	}
}

func TestForkJoinSingleRank(t *testing.T) {
	// Degenerate master-only fork-join must still work (self-broadcasts).
	d := makeDataset(t, 8, 2, 40, 9)
	res, _, err := Run(d, enginecore.RunConfig{
		Search: search.Config{Het: model.Gamma, Seed: 2, MaxIterations: 1},
		Ranks:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LnL >= 0 {
		t.Fatalf("lnL = %g", res.LnL)
	}
}
