package phyrun

import (
	"context"
	"fmt"

	"repro/internal/service/client"
)

// TaskResult is a task's deterministic outcome. Tree strings use the
// shortest round-tripping decimal form for branch lengths and LnLBits
// is the IEEE-754 bit pattern of the score, so string equality is bit
// equality — campaigns are compared across backends by comparing these.
type TaskResult struct {
	Tree          string  `json:"tree"`
	LogLikelihood float64 `json:"log_likelihood"`
	LnLBits       string  `json:"lnl_bits"`
	Iterations    int     `json:"iterations"`
	// WallSeconds is timing, not outcome: no written file carries it.
	WallSeconds float64 `json:"-"`
}

// Runner executes one task and returns its result. Implementations must
// be safe for concurrent use and deterministic: the same task (same
// dataset, same seeds) yields a bit-identical Tree and LnLBits whenever
// and wherever it runs. The local backend (examl.LocalCampaignRunner)
// infers in-process; ServiceRunner submits to an examld pool.
type Runner interface {
	Run(ctx context.Context, task Task) (*TaskResult, error)
}

// ServiceRunner executes tasks as jobs on an examld daemon. Base
// describes the dataset and search parameters; the runner fills the
// per-task fields (seed, start-tree kind, bootstrap resampling) and
// tags each job with the campaign label.
type ServiceRunner struct {
	Client *client.Client
	// Base is the job template: dataset (Phylip+Partitions or Simulate),
	// Ranks, Threads, MaxIterations, Epsilon, SPRRadius. Seed,
	// ParsimonyStart, Bootstrap, and Campaign are overwritten per task.
	Base client.JobSpec
	// Campaign labels the submitted jobs (shows up in job listings and
	// the daemon's campaign-task counters).
	Campaign string
}

// Run submits the task as a job and long-polls it to completion.
func (r *ServiceRunner) Run(ctx context.Context, task Task) (*TaskResult, error) {
	spec := r.Base
	spec.Seed = task.Seed
	spec.ParsimonyStart = task.Parsimony
	spec.Campaign = r.Campaign
	spec.Bootstrap = nil
	if task.Kind == TaskReplicate {
		spec.Bootstrap = &client.BootstrapSpec{Seed: task.ResampleSeed}
	}
	view, err := r.Client.Submit(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("phyrun: submitting task %s: %w", task.ID(), err)
	}
	res, err := r.Client.Wait(ctx, view.ID, nil)
	if err != nil {
		return nil, fmt.Errorf("phyrun: task %s (job %s): %w", task.ID(), view.ID, err)
	}
	return &TaskResult{
		Tree:          res.Tree,
		LogLikelihood: res.LogLikelihood,
		LnLBits:       res.LnLBits,
		Iterations:    res.Iterations,
		WallSeconds:   res.WallSeconds,
	}, nil
}
