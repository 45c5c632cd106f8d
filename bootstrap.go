package examl

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bootstrap"
	"repro/internal/phyrun"
	"repro/internal/tree"
)

// BootstrapResult is the outcome of a bootstrap analysis.
type BootstrapResult struct {
	// BestTree is the reference ML tree in Newick with integer percent
	// support values as inner-node labels.
	BestTree string
	// Supports are the per-bipartition support fractions (0..1) in the
	// reference tree's bipartition order.
	Supports []float64
	// Replicates is the number of bootstrap replicates used (under
	// adaptive bootstopping, the converged prefix).
	Replicates int
	// ReplicateTrees are the per-replicate ML trees (Newick).
	ReplicateTrees []string
	// ConsensusTree is the extended majority-rule consensus of the
	// replicate trees (Newick), with per-split supports in
	// ConsensusSupports (0 marks arbitrary resolutions of
	// multifurcations).
	ConsensusTree string
	// ConsensusSupports aligns with the consensus tree's bipartitions.
	ConsensusSupports []float64
	// Converged reports whether adaptive bootstopping stopped the run
	// before the full replicate budget.
	Converged bool
}

// BootstrapOptions tunes Bootstrap beyond the plain fixed-B run.
type BootstrapOptions struct {
	// Workers bounds concurrent searches (default 1 — sequential, like
	// the original implementation). Results are identical at any value.
	Workers int
	// AutoStop enables adaptive bootstopping: the replicate count
	// becomes a ceiling, checked every AutoStopEvery replicates against
	// the AutoStopCutoff frequency criterion (zero values use the
	// phyrun defaults: every 10, cutoff 0.03).
	AutoStop       bool
	AutoStopEvery  int
	AutoStopCutoff float64
	// ManifestPath makes the run resumable (docs/ORCHESTRATOR.md).
	ManifestPath string
}

// Bootstrap runs a nonparametric bootstrap: a reference ML search on the
// original dataset, then `replicates` searches on site-resampled
// replicates (deterministic given cfg.Seed), and maps the replicate
// bipartition frequencies onto the reference tree as support values —
// the standard RAxML workflow, under either parallelization scheme.
// It is a one-start campaign on the phyrun orchestrator; use
// BootstrapWithOptions for concurrency, bootstopping, or resume.
func Bootstrap(d *Dataset, cfg Config, replicates int) (*BootstrapResult, error) {
	return BootstrapWithOptions(d, cfg, replicates, BootstrapOptions{})
}

// BootstrapWithOptions is Bootstrap with scheduling options.
func BootstrapWithOptions(d *Dataset, cfg Config, replicates int, opts BootstrapOptions) (*BootstrapResult, error) {
	if replicates < 1 {
		return nil, fmt.Errorf("examl: need at least 1 bootstrap replicate")
	}

	plan := phyrun.Plan{
		Seed:       cfg.Seed,
		Replicates: replicates,
		// Pin the reference search to cfg.Seed so the reference tree is
		// exactly Infer(d, cfg), as it always was.
		StartSeeds: []int64{cfg.Seed},
	}
	if cfg.ParsimonyStartTree {
		plan.ParsimonyStarts = 1
	} else {
		plan.RandomStarts = 1
	}
	if opts.AutoStop {
		plan.Bootstop = &phyrun.BootstopConfig{
			CheckEvery: opts.AutoStopEvery,
			Cutoff:     opts.AutoStopCutoff,
		}
	}
	res, err := phyrun.Run(context.Background(), phyrun.Config{
		Plan:         plan,
		Runner:       &LocalCampaignRunner{Dataset: d, Config: cfg},
		Workers:      opts.Workers,
		ManifestPath: opts.ManifestPath,
	})
	if err != nil {
		return nil, err
	}
	return &BootstrapResult{
		BestTree:          res.AnnotatedTree,
		Supports:          res.Supports,
		Replicates:        len(res.ReplicateTrees),
		ReplicateTrees:    res.ReplicateTrees,
		ConsensusTree:     res.ConsensusTree,
		ConsensusSupports: res.ConsensusSupports,
		Converged:         res.Converged,
	}, nil
}

// LocalCampaignRunner executes phyrun campaign tasks in-process over
// Infer — the orchestrator's local backend. Replicate tasks resample
// the dataset from the task's seed before searching; because resampling
// is a pure function of (dataset, seed), the result is bit-identical to
// the same task run by a service worker.
type LocalCampaignRunner struct {
	// Dataset is the base alignment.
	Dataset *Dataset
	// Config is the search template; Seed and ParsimonyStartTree are
	// overwritten per task.
	Config Config
}

// Run executes one task.
func (r *LocalCampaignRunner) Run(ctx context.Context, t phyrun.Task) (*phyrun.TaskResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := r.Config
	cfg.Seed = t.Seed
	cfg.ParsimonyStartTree = t.Parsimony
	d := r.Dataset
	if t.Kind == phyrun.TaskReplicate {
		var err error
		if d, err = ResampleDataset(d, t.ResampleSeed); err != nil {
			return nil, err
		}
	}
	res, err := Infer(d, cfg)
	if err != nil {
		return nil, err
	}
	return &phyrun.TaskResult{
		Tree:          res.Tree,
		LogLikelihood: res.LogLikelihood,
		LnLBits:       fmt.Sprintf("%016x", math.Float64bits(res.LogLikelihood)),
		Iterations:    res.Iterations,
		WallSeconds:   res.WallSeconds,
	}, nil
}

// MajorityConsensus builds the extended majority-rule consensus of a set
// of Newick trees over the same taxa, returning the consensus Newick and
// the per-bipartition support fractions.
func MajorityConsensus(newicks []string, minFraction float64) (string, []float64, error) {
	splits := bootstrap.NewSplitCounter()
	for i, nw := range newicks {
		t, err := tree.ParseNewick(nw, 1)
		if err != nil {
			return "", nil, fmt.Errorf("examl: tree %d: %w", i, err)
		}
		if _, err := splits.Add(t); err != nil {
			return "", nil, err
		}
	}
	cons, sup, err := splits.Consensus(len(newicks), minFraction)
	if err != nil {
		return "", nil, err
	}
	return cons.Newick(), sup, nil
}

// ResampleDataset exposes bootstrap resampling for callers that manage
// their own replicate searches: the replicate is a pure function of
// (dataset, seed), the contract both campaign backends rely on.
func ResampleDataset(d *Dataset, seed int64) (*Dataset, error) {
	r, err := bootstrap.Resample(d.d, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return &Dataset{d: r}, nil
}
