package likelihood

import (
	"math"

	"repro/internal/telemetry"
)

// Step is one entry of a schedule: "combine operand A (across branch
// length TA) with operand B (across TB) into Dst". Dst is an Inner ref in
// a post-order schedule — a traversal descriptor, which a fork-join master
// broadcasts and the de-centralized engine computes on every rank — and an
// Outer ref in a pre-order one.
type Step struct {
	Dst, A, B Ref
	TA, TB    float64
}

// Every call below stages its block operations into the kernel's program
// (dispatch.go) and returns; nothing is computed until the program is
// flushed — by the engine, for all of a rank's kernels in one dispatch, or
// by Flush for a kernel that stands alone. A call's operands must have
// been computed by the time its operation runs: by an earlier program, or
// by an earlier call of the same one.

// Newview stages one vector update into the CLV or outer slot s.Dst
// names: the combine of operands A and B across branch lengths TA and TB.
// A pre-order update is the post-order combine itself — same staging,
// same block workers, same a·b operand order. Each pattern block writes a
// disjoint range, so the result is identical at every thread count. The
// update moves the stamp every sum table was contracted under
// (sumtable.go).
//
// When a child is a tip, the per-site P·tipVec product is a table read
// (fastpath.go); the table entries are computed by the exact expression
// of the worker's inner side, so a tip never changes a bit of the result.
func (k *Kernel) Newview(s Step) { k.stageStep(k.stage(opNewview), s) }

// stageStep fills ra with the combine s names — its destination slot,
// operands, P matrices and tip tables — and counts it as a Newview: the
// staging of Newview and of an insertion score's pre-order step.
func (k *Kernel) stageStep(ra *runArgs, s Step) {
	dclv, dscale := k.slot(s.Dst)
	oa, ob := k.operand(s.A), k.operand(s.B)
	pa, pb := k.probMatricesFor(s.TA), k.probMatricesFor(s.TB)
	if oa.tips != nil && ob.tips != nil {
		k.counts[telemetry.RankTipTipNewviews]++
	}
	if oa.tips != nil {
		ra.tabA = k.tipTable(pa, oa)
	}
	if ob.tips != nil {
		ra.tabB = k.tipTable(pb, ob)
	}
	k.countSites()
	ra.dclv, ra.dscale, ra.oa, ra.ob, ra.pa, ra.pb = dclv, dscale, oa, ob, pa, pb
	k.counts[telemetry.RankColumns] += k.cols()
	k.stamp++
}

// Traverse stages a schedule in order: a post-order one children before
// parents, a pre-order one parents before children (traversal.Build and
// traversal.BuildGradient guarantee both).
func (k *Kernel) Traverse(steps []Step) {
	for _, s := range steps {
		k.Newview(s)
	}
}

// Evaluate stages the weighted log likelihood over the local patterns for
// a virtual root on edge (p, q) with branch length t; the value is the
// finished program's next result (LnL). Either operand may be a tip, a
// CLV or an outer vector; q, the far one, takes the P product, so only a
// far tip needs a table. Per-block partial sums are combined in
// block-index order at the join, so the total is bit-identical to the
// serial kernel at every thread count.
func (k *Kernel) Evaluate(p, q Ref, t float64) {
	op, oq := k.operand(p), k.operand(q)
	pm := k.probMatricesFor(t)
	ra := k.stageReducing(opEvaluate)
	if oq.tips != nil {
		ra.tabB = k.tipTable(pm, oq)
	}
	k.countSites()
	ra.oa, ra.ob, ra.pa, ra.catW = op, oq, pm, k.par.CatWeight()
	k.counts[telemetry.RankColumns] += k.cols()
}

// CLVDigest returns a cheap order-sensitive hash of an inner slot's CLV
// and its scale counts, what consistency checks in tests compare.
func (k *Kernel) CLVDigest(slot int) uint64 {
	clv := k.clv[slot]
	if clv == nil {
		return 0
	}
	var h uint64 = 14695981039346656037
	for _, v := range clv {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	for _, s := range k.scale[slot] {
		h ^= uint64(uint32(s))
		h *= 1099511628211
	}
	return h
}
