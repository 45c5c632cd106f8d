// Package search implements the RAxML-style maximum-likelihood tree search
// — branch-length smoothing with Newton–Raphson, lockstep Brent
// optimization of per-partition model parameters that converges per
// partition, PSR per-site rate optimization, and lazy-SPR topology
// rearrangements — written once against the Engine interface.
//
// This single-source property is the paper's "exactly the same tree search
// algorithm" guarantee: the fork-join engine runs this code on the master
// only and ships commands to workers; the de-centralized engine runs it as
// a consistent replica on every rank. Both produce bit-identical
// trajectories because the reductions they use are bit-deterministic.
package search

import "repro/internal/traversal"

// Engine is the distributed likelihood backend. Every method corresponds
// to one (or a fixed number of) parallel regions. Implementations:
// decentral.Engine and forkjoin.Engine; the search's tests check what an
// engine returns against a twin engine's (twin_test.go).
type Engine interface {
	// NPartitions returns the number of dataset partitions.
	NPartitions() int

	// BLClasses returns the number of branch-length linkage classes
	// (1, or NPartitions under per-partition branch lengths).
	BLClasses() int

	// Traverse executes the descriptor's CLV schedule on all data.
	Traverse(d *traversal.Descriptor)

	// Evaluate executes the descriptor and returns the global
	// per-partition log likelihoods at its virtual root edge. When the
	// descriptor carries an active-partition mask, only the marked
	// partitions are traversed and evaluated; the other slots of the
	// result are meaningless and the partitions' CLVs stay as they are.
	Evaluate(d *traversal.Descriptor) []float64

	// PrepareBranch executes the descriptor; BranchDerivatives then
	// returns the global (d lnL/dt, d² lnL/dt²) sums per linkage class,
	// at the trial lengths ts (one per class), of the descriptor's edge.
	// The search calls neither — a branch's Newton iterations are
	// one-edge AllBranchDerivatives plans — and every implementation is
	// PerBranch.
	PrepareBranch(d *traversal.Descriptor)
	BranchDerivatives(ts []float64) (d1, d2 []float64)

	// AllBranchDerivatives executes the gradient plan — the pre-order
	// outer-vector steps, then the fused per-edge derivative kernel —
	// and returns the global (d1, d2) sums for EVERY edge at the plan's
	// lengths: with nB = plan.NBranches() and classes = BLClasses(),
	// d1 of edge b in class c is at [c*nB+b] and d2 at
	// [classes*nB + c*nB + b]. The whole call is one parallel region
	// regardless of branch count — the batched-gradient collective
	// reduction (docs/PERFORMANCE.md). Like every engine result, the
	// slice is only valid until the engine's next call.
	AllBranchDerivatives(plan *traversal.GradPlan) []float64

	// ScoreInsertions executes the insertion plan of one SPR prune
	// point — its post-order and pre-order steps, then per candidate
	// edge one insertion and one evaluation — and returns the global
	// per-partition log likelihood of every candidate insertion:
	// candidate i's partition p is at [i*NPartitions()+p]. The whole
	// call is one parallel region whatever the candidate count, and
	// each slot holds the bits Evaluate would return for a forced full
	// traversal of the tree with the subtree regrafted into candidate i
	// (docs/DETERMINISM.md §9). Like every engine result, the slice is
	// only valid until the engine's next call.
	ScoreInsertions(plan *traversal.InsertPlan) []float64

	// SetShared applies per-partition shared parameters (α + GTR rates,
	// model.SharedLen doubles per partition) to all ranks' kernels. The
	// engine copies what it needs before returning: the caller reuses
	// the rows for its next proposal.
	SetShared(params [][]float64)

	// OptimizeSiteRates runs the PSR per-site-rate pipeline using the
	// given full-tree descriptor and returns the per-linkage-class
	// branch-length scale factors that compensate the global rate
	// normalization (all 1 when nothing changed). No-op under Γ.
	OptimizeSiteRates(d *traversal.Descriptor) []float64

	// Close releases engine resources (stops worker loops).
	Close()
}

// PerBranch is the one implementation of Engine.PrepareBranch and
// Engine.BranchDerivatives, embedded by both engines: the descriptor's
// traversal, then per call the contracting one-edge gradient plan of its
// edge at the trial lengths — the first iteration of the search's own
// Newton loop for one branch — with no kernel code and no wire frame of
// its own. The pair stays in Engine only while the benchmark's traced
// engine overrides it, and leaves with the benchmark change that drops
// those decorators (ROADMAP item 2).
type PerBranch struct {
	eng  perBranchEngine
	plan traversal.GradPlan
}

// perBranchEngine is what PerBranch needs of the engine embedding it.
type perBranchEngine interface {
	Traverse(d *traversal.Descriptor)
	AllBranchDerivatives(plan *traversal.GradPlan) []float64
}

// NewPerBranch returns the PerBranch methods of eng.
func NewPerBranch(eng perBranchEngine) PerBranch { return PerBranch{eng: eng} }

// PrepareBranch implements Engine.
func (b *PerBranch) PrepareBranch(d *traversal.Descriptor) {
	b.eng.Traverse(d)
	b.plan.SetEdge(d)
}

// BranchDerivatives implements Engine.
func (b *PerBranch) BranchDerivatives(ts []float64) (d1, d2 []float64) {
	for c, t := range ts {
		b.plan.T[c][0] = t
	}
	out := b.eng.AllBranchDerivatives(&b.plan)
	return out[:len(ts)], out[len(ts):]
}
