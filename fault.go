package examl

import (
	"fmt"

	"repro/internal/fault"
)

// FailurePlan injects rank failures into a decentralized inference to
// demonstrate the fault-tolerance property of the scheme: because every
// rank replicates the full search state, survivors re-distribute the data
// among themselves and continue — no master holds irreplaceable state.
type FailurePlan struct {
	// FailRanks is how many ranks die.
	FailRanks int
	// FailAfterIteration is the outer-loop iteration after which the
	// failure strikes (default 1).
	FailAfterIteration int
}

// RecoveryReport describes how a failure-injected run recovered.
type RecoveryReport struct {
	// SurvivorRanks is the rank count after the failure.
	SurvivorRanks int
	// ResumedFromIteration is the iteration the survivors resumed at.
	ResumedFromIteration int
	// LogLikelihoodAtFailure is the replicated score at the failure
	// point.
	LogLikelihoodAtFailure float64
}

// InferWithFailures runs a decentralized inference that loses
// plan.FailRanks ranks mid-search and completes on the survivors. Only
// the Decentralized scheme supports this: under ForkJoin the loss of the
// master is fatal by construction (the asymmetry the paper calls out).
func InferWithFailures(d *Dataset, cfg Config, plan FailurePlan) (*Result, *RecoveryReport, error) {
	if cfg.Scheme != Decentralized {
		return nil, nil, fmt.Errorf("examl: fault tolerance requires the Decentralized scheme (fork-join master loss is fatal)")
	}
	if cfg.Ranks <= 0 {
		cfg.Ranks = 2
	}
	rc, ckpt, err := runConfig(cfg, cfg.Ranks)
	if err != nil {
		return nil, nil, err
	}
	res, stats, rep, err := fault.Run(d.d, fault.Plan{
		Run:                rc,
		FailRanks:          plan.FailRanks,
		FailAfterIteration: plan.FailAfterIteration,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := ckpt.failure(); err != nil {
		return nil, nil, err
	}
	return newResult(res, stats, rc), &RecoveryReport{
		SurvivorRanks:          rep.SurvivorRanks,
		ResumedFromIteration:   rep.CheckpointIteration,
		LogLikelihoodAtFailure: rep.CheckpointLnL,
	}, nil
}
