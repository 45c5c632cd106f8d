// Package fault implements the fault-tolerance extension the paper's §V
// lays out as future work: because the de-centralized scheme replicates
// the complete search state on every rank, the loss of ranks is survivable
// — "the data will merely have to be re-distributed to the remaining
// processes/cores such that computations can continue".
//
// The recovery protocol implemented here:
//
//  1. The run executes normally until the failure point.
//  2. Any surviving rank's replica of the search state (tree, branch
//     lengths, model parameters) is snapshotted — they are all identical,
//     which is the whole point; the snapshot deliberately comes from the
//     highest surviving rank to demonstrate that no master is needed.
//  3. The data-distribution function is re-evaluated for the survivor
//     count (it is a pure function of pattern counts and rank count, so no
//     data needs to move through a coordinator), survivors rebuild their
//     kernels, and the search resumes from the snapshot.
//
// Under the fork-join scheme the same failure is fatal when it hits the
// master: no other process holds the tree or the search state — the
// asymmetry the paper calls out. TestForkJoinMasterLossIsFatal documents
// it.
package fault

import (
	"fmt"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/decentral"
	"repro/internal/enginecore"
	"repro/internal/msa"
	"repro/internal/search"
)

// Plan describes a failure-injection scenario.
type Plan struct {
	// Run is the de-centralized run configuration; Run.Ranks is the
	// initial rank count. It applies to both phases.
	Run enginecore.RunConfig
	// FailRanks is how many ranks die at the failure point.
	FailRanks int
	// FailAfterIteration is the outer-loop iteration after which the
	// failure strikes.
	FailAfterIteration int
}

// Report describes what happened during a failure-injected run.
type Report struct {
	// SurvivorRanks is the rank count after the failure.
	SurvivorRanks int
	// CheckpointIteration is the iteration the recovery resumed from.
	CheckpointIteration int
	// CheckpointLnL is the replicated likelihood at the failure point.
	CheckpointLnL float64
	// RecoveredFromRank is the rank whose replica seeded the restart.
	RecoveredFromRank int
}

// Run executes a de-centralized inference with an injected rank failure
// and completes it on the survivors. The returned stats — and any
// telemetry plan.Run asks for — describe the recovery phase, as
// RunNet's describe the epoch that completed.
func Run(d *msa.Dataset, plan Plan) (*search.Result, *enginecore.RunStats, *Report, error) {
	ranks := plan.Run.Ranks
	if ranks < 2 {
		return nil, nil, nil, fmt.Errorf("fault: need at least 2 ranks, got %d", ranks)
	}
	if plan.FailRanks < 1 || plan.FailRanks >= ranks {
		return nil, nil, nil, fmt.Errorf("fault: cannot fail %d of %d ranks", plan.FailRanks, ranks)
	}
	if plan.FailAfterIteration < 1 {
		plan.FailAfterIteration = 1
	}

	// Phase 1: run until the failure point. Every rank snapshots its
	// replica each iteration (in memory — the paper's maximum state
	// redundancy); recovery then uses the last snapshot taken by any
	// surviving replica. The replicas' snapshots are identical by the
	// §III-B consistency property, which decentral.Run verifies.
	survivorRank := ranks - plan.FailRanks
	recoveryRank := survivorRank - 1

	phase1 := plan.Run
	phase1.Telemetry = nil // the report describes the world that completes
	phase1.Search.MaxIterations = plan.FailAfterIteration
	latest := keepSnapshots(&phase1.Search)
	if _, _, err := decentral.Run(d, phase1); err != nil {
		return nil, nil, nil, fmt.Errorf("fault: phase 1: %w", err)
	}
	snap := latest()
	if snap == nil {
		return nil, nil, nil, fmt.Errorf("fault: no snapshot captured before failure")
	}

	// Phase 2: FailRanks ranks are gone. Survivors recompute the
	// distribution for their reduced world and resume from the replica.
	phase2 := plan.Run
	phase2.Ranks = survivorRank
	phase2.Search.Restore = snap
	res, stats, err := decentral.Run(d, phase2)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("fault: phase 2 (recovery): %w", err)
	}
	return res, stats, &Report{
		SurvivorRanks:       survivorRank,
		CheckpointIteration: snap.Iteration,
		CheckpointLnL:       snap.LnL,
		RecoveredFromRank:   recoveryRank,
	}, nil
}

// keepSnapshots makes sc's iteration hook snapshot the replica in memory
// before it calls the hook sc had, and returns a getter for the newest
// snapshot taken so far (nil before the first). Every replica of an
// in-process world runs the hook, so both are safe for concurrent use.
func keepSnapshots(sc *search.Config) (latest func() *checkpoint.State) {
	var mu sync.Mutex
	var snap *checkpoint.State
	userHook := sc.OnIteration
	sc.OnIteration = func(s *search.Searcher, iter int, lnL float64) {
		cur := s.Snapshot(iter)
		mu.Lock()
		if snap == nil || cur.Iteration > snap.Iteration {
			snap = cur
		}
		mu.Unlock()
		if userHook != nil {
			userHook(s, iter, lnL)
		}
	}
	return func() *checkpoint.State {
		mu.Lock()
		defer mu.Unlock()
		return snap
	}
}
