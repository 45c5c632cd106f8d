package enginecore

import (
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/traversal"
)

// Fused small-partition batching (docs/PERFORMANCE.md §6).
//
// The §V hybrid scheme splits every kernel invocation over the rank's
// worker pool — but a pool dispatch has a fixed synchronization cost
// (enqueue, atomic cursor, join), and a partition far below one block
// per thread cannot amortize it. Genomic alignments are dominated by
// exactly such partitions: hundreds of loci a few hundred patterns
// wide. Batching inverts the parallelization axis for them: every
// local kernel whose pattern count is below the site threshold is
// detached from the pool (it computes serially) and all of them are
// dispatched together as single items of ONE Pool.Each call per
// likelihood operation — many partitions, one synchronization.
//
// Bit-identity: a batched kernel computes serially, which the
// thread-count invariance contract already pins to the pooled bits;
// each item deposits its results into its own kernel-indexed slots,
// and the caller folds the slots in kernel-index order after the join
// — the identical accumulation order as the unbatched loop
// (docs/DETERMINISM.md §8; TestBatchingChangesNoBit).

// DefaultBatchSites is the fused-batching threshold: kernels with fewer
// patterns than this are fused. One pool block is BlockSize
// patterns, so a partition below one block can never spread over more
// than one worker anyway — batching such partitions costs nothing even
// at T=1 and removes a per-partition pool synchronization otherwise.
const DefaultBatchSites = 256

// batchOp selects the per-kernel operation a batched dispatch runs.
// The dispatch arguments are staged in Local.bArgs so the pool closure
// can be built once and reused — keeping the steady-state optimization
// loops allocation-free.
type batchOp int

// batchArgs are the operands of one batched dispatch; each batchOp reads
// the ones it needs.
type batchArgs struct {
	desc   *traversal.Descriptor
	grad   *traversal.GradPlan
	ins    *traversal.InsertPlan
	ts     []float64
	byPart bool // ts is indexed by partition, not linkage class
}

const (
	batchTraverse batchOp = iota
	batchEvaluate
	batchPrepare
	batchDeriv
	batchGradient
	batchSiteRates
	batchInsertions
)

// setBatchSites configures fused small-partition batching: local
// kernels with fewer than n patterns are detached from the worker pool
// and dispatched together as one pool call per likelihood operation.
// NewLocal applies DefaultBatchSites; n <= 0 puts every kernel back on
// the shared pool, which the in-package tests use as the unbatched
// reference.
func (l *Local) setBatchSites(n int) {
	if l.inBatch == nil {
		l.inBatch = make([]bool, len(l.Kernels))
	}
	l.batched = l.batched[:0]
	for i, k := range l.Kernels {
		small := n > 0 && k.NPatterns() < n
		l.inBatch[i] = small
		if small {
			// Batched kernels run whole inside one pool item; handing
			// them the shared pool would deadlock a worker on its own
			// pool's join.
			k.SetPool(nil)
			l.batched = append(l.batched, i)
		} else {
			k.SetPool(l.pool)
		}
	}
}

// BatchedKernels reports how many local kernels the current threshold
// fuses.
func (l *Local) BatchedKernels() int { return len(l.batched) }

// isBatched reports whether local kernel i belongs to the fused batch.
func (l *Local) isBatched(i int) bool {
	return len(l.inBatch) > 0 && l.inBatch[i]
}

// dispatchBatch runs op over every batched kernel as one Pool.Each
// call and returns the kernel-indexed result slots (stride doubles per
// kernel; nil when nothing is batched or the op has no vector output).
// The caller folds the slots of batched kernels in kernel-index order,
// interleaved with the serially computed large kernels — reproducing
// the unbatched accumulation order exactly.
func (l *Local) dispatchBatch(op batchOp, args batchArgs, stride int, class telemetry.KernelClass) []float64 {
	if len(l.batched) == 0 {
		return nil
	}
	l.bOp, l.bArgs = op, args
	var out []float64
	if stride > 0 {
		out = scratchVec(&l.batchScr, stride*len(l.Kernels))
	}
	l.bOut = out
	t := l.rec.Begin()
	l.pool.Each(len(l.batched), l.batchFn)
	l.rec.EndKernel(class, t)
	l.batchDispatches++
	l.batchKernels += int64(len(l.batched))
	return out
}

// runBatchItem executes the staged batch operation on batched kernel
// slot j. It runs on a pool worker: it must only touch kernel-local
// state and its own kernel-indexed output slots, and must not record
// telemetry spans (the dispatch records one span for the whole batch).
func (l *Local) runBatchItem(j int) {
	i := l.batched[j]
	k := l.Kernels[i]
	p := l.PartIdx[i]
	cls := l.ClassOf(p)
	switch l.bOp {
	case batchTraverse:
		k.Traverse(l.bArgs.desc.Steps[cls])
	case batchEvaluate:
		d := l.bArgs.desc
		if d.Active != nil && !d.Active[p] {
			return
		}
		k.Traverse(d.Steps[cls])
		l.bOut[i] = k.Evaluate(d.P, d.Q, d.T[cls])
	case batchPrepare:
		d := l.bArgs.desc
		k.Traverse(d.Steps[cls])
		k.PrepareDerivatives(d.P, d.Q)
	case batchDeriv:
		idx := cls
		if l.bArgs.byPart {
			idx = p
		}
		a, b := k.Derivatives(l.bArgs.ts[idx])
		l.bOut[2*i] = a
		l.bOut[2*i+1] = b
	case batchGradient:
		plan := l.bArgs.grad
		nB := plan.NBranches()
		k.TraverseOuter(plan.Pre[cls])
		base := i * 2 * nB
		for b, e := range plan.Edges {
			if plan.Active != nil && !plan.Active[b] {
				continue
			}
			var d1, d2 float64
			if plan.Reuse {
				d1, d2 = k.BranchGradientReuse(b, plan.T[cls][b])
			} else {
				d1, d2 = k.BranchGradientCached(b, nB, e.P, e.Q, plan.T[cls][b])
			}
			l.bOut[base+b] = d1
			l.bOut[base+nB+b] = d2
		}
	case batchInsertions:
		plan := l.bArgs.ins
		scoreInsertions(k, plan, cls, l.bOut[i*plan.NCandidates():], 1)
	case batchSiteRates:
		tab := l.takeSiteRateTable()
		newSiteRateArgs(k, tab, l.bArgs.desc, cls).optimize(0, k.NPatterns())
		l.putSiteRateTable(tab)
		const cells = model.MaxPSRCategories
		base := i * 2 * cells
		model.AccumulateRateCells(k.Params().SiteRates, k.Data().Weights, l.bOut[base:base+cells], l.bOut[base+cells:base+2*cells])
	}
}
