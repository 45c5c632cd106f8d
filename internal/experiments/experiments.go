// Package experiments regenerates every table and figure of the paper's
// evaluation section:
//
//   - Table I: fork-join MPI traffic decomposed by parallel-region class
//     on the 10-partition dataset, for {Γ, PSR} × {joint, per-partition
//     branch lengths}.
//   - Figure 3: runtimes/speedups of the de-centralized scheme on the
//     large unpartitioned alignment across node counts, Γ and PSR,
//     including the Γ memory-pressure artifact on 1–2 nodes.
//   - Figure 4(a)/(b): ExaML vs RAxML-Light runtimes across partition
//     counts under joint (-a) and per-partition (-b) branch lengths, with
//     MPS distribution enabled for the two largest partition counts.
//
// Every experiment runs for real at a configurable scale (ranks are
// goroutines, traffic is metered exactly), then projects to the paper's
// cluster through the calibrated cost model — the documented substitution
// for the original 50-node machine. Paper reference values are embedded so
// the harness prints paper-vs-measured rows directly.
package experiments

import (
	"fmt"

	"repro/internal/decentral"
	"repro/internal/distrib"
	"repro/internal/enginecore"
	"repro/internal/forkjoin"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/search"
	"repro/internal/seqgen"
	"repro/internal/telemetry"
)

// Scale parameterizes experiment size so the suite runs anywhere from CI
// (Small) to hours-long high-fidelity runs (Paper).
type Scale struct {
	// Taxa and GeneLen define the partitioned (52-taxon paper) recipe.
	Taxa, GeneLen int
	// PartCounts are the partition counts of Figure 4 / Table I's first
	// entry is used for Table I.
	PartCounts []int
	// MPSFrom is the partition count from which MPS (-Q) is enabled,
	// mirroring the paper's ≥500 rule.
	MPSFrom int
	// Ranks is the measurement rank count (goroutines).
	Ranks int
	// ProjectRanks is the cluster scale Figure 4 projects to (192 = 4
	// nodes in the paper).
	ProjectRanks int
	// MaxIterations bounds the search per run.
	MaxIterations int
	// Fig3Taxa and Fig3Sites define the unpartitioned recipe (150 ×
	// 20,000,000 in the paper).
	Fig3Taxa, Fig3Sites int
	// Fig3PaperTaxa/Fig3PaperPatterns are the full-size dimensions the
	// Figure-3 trace is extrapolated to.
	Fig3PaperTaxa, Fig3PaperPatterns int
	// Fig3Nodes are the node counts of Figure 3.
	Fig3Nodes []int
	// Fig4PaperTaxa and Fig4PaperPatternsPerGene are the full-size
	// dimensions (52 taxa, ~600 unique patterns per 1000-bp gene) the
	// Figure-4 traces are extrapolated to before projection.
	Fig4PaperTaxa, Fig4PaperPatternsPerGene int
	// Seed drives dataset generation.
	Seed int64
}

// Small is the CI/bench scale: finishes in well under a minute.
func Small() Scale {
	return Scale{
		Taxa: 12, GeneLen: 60,
		PartCounts:    []int{4, 8, 16, 32},
		MPSFrom:       16,
		Ranks:         4,
		ProjectRanks:  192,
		MaxIterations: 1,
		Fig3Taxa:      16, Fig3Sites: 2000,
		Fig3PaperTaxa: 150, Fig3PaperPatterns: 12_597_450,
		Fig3Nodes:     []int{1, 2, 4, 8, 16, 32},
		Fig4PaperTaxa: 52, Fig4PaperPatternsPerGene: 600,
		Seed: 2013,
	}
}

// Default is the standard reproduction scale: minutes, shapes clearly
// visible.
func Default() Scale {
	return Scale{
		Taxa: 24, GeneLen: 200,
		PartCounts:    []int{10, 50, 100, 200},
		MPSFrom:       100,
		Ranks:         6,
		ProjectRanks:  192,
		MaxIterations: 2,
		Fig3Taxa:      32, Fig3Sites: 20000,
		Fig3PaperTaxa: 150, Fig3PaperPatterns: 12_597_450,
		Fig3Nodes:     []int{1, 2, 4, 8, 16, 32},
		Fig4PaperTaxa: 52, Fig4PaperPatternsPerGene: 600,
		Seed: 2013,
	}
}

// Paper is the highest-fidelity scale (52 taxa, 1000-bp genes, the full
// partition-count sweep). Expect long runtimes.
func Paper() Scale {
	return Scale{
		Taxa: 52, GeneLen: 1000,
		PartCounts:    []int{10, 50, 100, 500, 1000},
		MPSFrom:       500,
		Ranks:         8,
		ProjectRanks:  192,
		MaxIterations: 3,
		Fig3Taxa:      52, Fig3Sites: 100000,
		Fig3PaperTaxa: 150, Fig3PaperPatterns: 12_597_450,
		Fig3Nodes:     []int{1, 2, 4, 8, 16, 32},
		Fig4PaperTaxa: 52, Fig4PaperPatternsPerGene: 600,
		Seed: 2013,
	}
}

// genPartitioned builds the 52-taxon-recipe dataset with p partitions.
func genPartitioned(sc Scale, p int) (*msa.Dataset, error) {
	res, err := seqgen.Generate(seqgen.PartitionedGenes(sc.Taxa, p, sc.GeneLen, sc.Seed))
	if err != nil {
		return nil, err
	}
	return msa.Compress(res.Alignment, res.Partitions)
}

// genUnpartitioned builds the Figure-3 recipe dataset.
func genUnpartitioned(sc Scale) (*msa.Dataset, error) {
	res, err := seqgen.Generate(seqgen.LargeUnpartitioned(sc.Fig3Taxa, sc.Fig3Sites, sc.Seed))
	if err != nil {
		return nil, err
	}
	return msa.Compress(res.Alignment, res.Partitions)
}

// runBoth executes the same configuration under both engines.
type bothRuns struct {
	Dec     *enginecore.RunStats
	Fj      *enginecore.RunStats
	DecLnL  float64
	FjLnL   float64
	DecIter int
}

func runBoth(d *msa.Dataset, cfg search.Config, ranks int, strategy distrib.Strategy) (*bothRuns, error) {
	dres, dstats, err := decentral.Run(d, enginecore.RunConfig{Search: cfg, Ranks: ranks, Strategy: strategy})
	if err != nil {
		return nil, fmt.Errorf("decentral: %w", err)
	}
	fres, fstats, err := forkjoin.Run(d, enginecore.RunConfig{Search: cfg, Ranks: ranks, Strategy: strategy})
	if err != nil {
		return nil, fmt.Errorf("forkjoin: %w", err)
	}
	return &bothRuns{
		Dec: dstats, Fj: fstats,
		DecLnL: dres.LnL, FjLnL: fres.LnL,
		DecIter: dres.Iterations,
	}, nil
}

// newTelemetry builds a per-run span collector sized for the repo's
// traffic classes.
func newTelemetry(ranks int) *telemetry.Collector {
	return telemetry.NewCollector(ranks, int(mpi.NumCommClasses), nil)
}

// hetOf maps a model flag to the search config value.
func hetOf(psr bool) model.Heterogeneity {
	if psr {
		return model.PSR
	}
	return model.Gamma
}
