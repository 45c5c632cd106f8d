package phyrun

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
)

// TaskKind distinguishes the two task species of a campaign.
type TaskKind string

// Task kinds: an ML tree search from an independent start, or one
// bootstrap replicate (resample, then search).
const (
	TaskStart     TaskKind = "start"
	TaskReplicate TaskKind = "replicate"
)

// Task is one schedulable unit of a campaign. All fields are derived
// from the plan — a Task carries everything a Runner needs to produce a
// deterministic result, independent of when or where it runs.
type Task struct {
	Kind  TaskKind `json:"kind"`
	Index int      `json:"index"`
	// Seed drives the tree search (starting tree and proposal order).
	Seed int64 `json:"seed"`
	// ResampleSeed drives the site resampling; replicates only.
	ResampleSeed int64 `json:"resample_seed,omitempty"`
	// Parsimony selects a randomized stepwise-addition parsimony
	// starting tree instead of a random topology; starts only.
	Parsimony bool `json:"parsimony,omitempty"`
}

// ID is the task's stable identifier within its campaign: "s<i>" for
// starts, "r<i>" for replicates. Manifests key task records by it.
func (t Task) ID() string {
	if t.Kind == TaskStart {
		return fmt.Sprintf("s%d", t.Index)
	}
	return fmt.Sprintf("r%d", t.Index)
}

// Plan is the deterministic description of a campaign: how many
// searches and replicates to run and the single seed all per-task seeds
// derive from. Two plans with equal fields generate identical task
// lists — the resume path depends on it.
type Plan struct {
	// Seed is the campaign seed; every task seed derives from it.
	Seed int64 `json:"seed"`
	// RandomStarts and ParsimonyStarts are the ML search counts; starts
	// are indexed 0..RandomStarts-1 (random) then on (parsimony).
	RandomStarts    int `json:"random_starts"`
	ParsimonyStarts int `json:"parsimony_starts"`
	// Replicates is the bootstrap budget B. With Bootstop set it is a
	// ceiling; replicates beyond the convergence point are skipped.
	Replicates int `json:"replicates"`
	// Bootstop, when non-nil, enables adaptive bootstopping.
	Bootstop *BootstopConfig `json:"bootstop,omitempty"`
	// StartSeeds optionally overrides the search seed of start i (used
	// by the legacy-compatible Bootstrap wrapper to pin its reference
	// search to the caller's seed). Missing entries derive normally.
	StartSeeds []int64 `json:"start_seeds,omitempty"`
}

// Starts returns the total number of ML searches.
func (p *Plan) Starts() int { return p.RandomStarts + p.ParsimonyStarts }

// Validate checks the plan is runnable.
func (p *Plan) Validate() error {
	if p.RandomStarts < 0 || p.ParsimonyStarts < 0 || p.Replicates < 0 {
		return fmt.Errorf("negative task counts")
	}
	if p.Starts() == 0 && p.Replicates == 0 {
		return fmt.Errorf("empty campaign (no starts, no replicates)")
	}
	if p.Replicates > 0 && p.Starts() == 0 {
		return fmt.Errorf("replicates need at least one ML start for the reference tree")
	}
	if len(p.StartSeeds) > p.Starts() {
		return fmt.Errorf("%d start-seed overrides for %d starts", len(p.StartSeeds), p.Starts())
	}
	if p.Bootstop != nil {
		if err := p.Bootstop.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Tasks expands the plan into its full task list: starts first (random
// then parsimony), then replicates in index order. The list is a pure
// function of the plan.
func (p *Plan) Tasks() []Task {
	tasks := make([]Task, 0, p.Starts()+p.Replicates)
	for i := 0; i < p.Starts(); i++ {
		seed := DeriveSeed(p.Seed, streamStartSearch, i)
		if i < len(p.StartSeeds) {
			seed = p.StartSeeds[i]
		}
		tasks = append(tasks, Task{
			Kind:      TaskStart,
			Index:     i,
			Seed:      seed,
			Parsimony: i >= p.RandomStarts,
		})
	}
	for r := 0; r < p.Replicates; r++ {
		tasks = append(tasks, Task{
			Kind:         TaskReplicate,
			Index:        r,
			Seed:         DeriveSeed(p.Seed, streamReplicateSearch, r),
			ResampleSeed: DeriveSeed(p.Seed, streamReplicateSample, r),
		})
	}
	return tasks
}

// Digest is a stable content hash of the plan (sha256 over its
// canonical JSON). Manifests store it so a resume against an edited
// plan is rejected instead of silently mixing two campaigns.
func (p *Plan) Digest() string {
	// encoding/json marshals struct fields in declaration order with no
	// map keys involved, so the encoding is canonical.
	raw, err := json.Marshal(p)
	if err != nil {
		// A Plan is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("phyrun: plan digest: %v", err))
	}
	return fmt.Sprintf("%x", sha256.Sum256(raw))
}
