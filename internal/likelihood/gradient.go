package likelihood

// Pre-order ("outward") conditional vectors and the fused all-branch
// gradient kernel (docs/PERFORMANCE.md).
//
// The post-order CLV at an inner vertex summarizes the subtree *below*
// it. The pre-order outer vector at a node summarizes everything on the
// *other* side of its parent edge — the rest of the tree as seen from
// the node, looking up. With both in hand the derivative of the log
// likelihood w.r.t. ANY branch is one pass over the sites pairing the
// branch's outer vector with its post-order CLV: the same sum-table
// inner product the per-branch PrepareDerivatives/Derivatives pair
// computes, without re-rooting a traversal per branch. One post-order
// pass plus one pre-order pass therefore makes every branch's (d1, d2)
// available — O(1) traversals instead of O(branches).
//
// Bit-identity with the per-branch pair holds by construction: the
// pre-order combine below is the exact Newview combine (same block
// workers, same operand order), and the fused gradient op runs the
// prepare worker and the derivative worker back to back over the same
// site block, so every double is produced by the same operations on the
// same operands in the same order as PrepareDerivatives + Derivatives on
// a traversal re-rooted at the edge (asserted by the gradient identity
// tests here and, per call of a whole search, by internal/search's twin
// engine).

// GradKind selects which buffer a GradRef addresses.
type GradKind uint8

const (
	// GradTipKind addresses a taxon's packed tip states.
	GradTipKind GradKind = iota
	// GradInnerKind addresses a post-order CLV slot.
	GradInnerKind
	// GradOuterKind addresses a pre-order outer-vector slot, indexed by
	// the child vertex the vector looks down on.
	GradOuterKind
)

// GradRef names one operand of a pre-order step or gradient edge.
type GradRef struct {
	Kind GradKind
	Idx  int32
}

// GradTip references taxon i's tip sequence.
func GradTip(i int32) GradRef { return GradRef{Kind: GradTipKind, Idx: i} }

// GradInner references post-order CLV slot i.
func GradInner(i int32) GradRef { return GradRef{Kind: GradInnerKind, Idx: i} }

// GradOuter references the pre-order outer vector for child vertex i
// (the conditional vector at i's parent, oriented toward i).
func GradOuter(i int32) GradRef { return GradRef{Kind: GradOuterKind, Idx: i} }

// GradStep is one pre-order partial computation: combine operand A (the
// parent side, across branch length TA) with operand B (the sibling
// subtree, across TB) into outer slot Dst.
type GradStep struct {
	Dst    int32
	A, B   GradRef
	TA, TB float64
}

// gradOperand resolves a GradRef to a kernel operand. Referenced CLV
// and outer slots must already have been computed (by Traverse and
// TraverseOuter respectively).
func (k *Kernel) gradOperand(r GradRef) operand {
	switch r.Kind {
	case GradTipKind:
		return operand{tips: k.data.Tips[r.Idx], mask: k.tipMask[r.Idx]}
	case GradInnerKind:
		return operand{clv: k.clv[r.Idx], scale: k.scale[r.Idx]}
	default:
		return operand{clv: k.outer[r.Idx], scale: k.outerScale[r.Idx]}
	}
}

// outerSlot returns (allocating on demand) the outer-vector backing
// store for child vertex i, mirroring slot() for post-order CLVs.
func (k *Kernel) outerSlot(i int32) ([]float64, []int32) {
	for int(i) >= len(k.outer) {
		k.outer = append(k.outer, nil)
		k.outerScale = append(k.outerScale, nil)
	}
	if k.outer[i] == nil || len(k.outer[i]) != k.clvLen() {
		k.outer[i] = make([]float64, k.clvLen())
		k.outerScale[i] = make([]int32, k.nPat)
	}
	return k.outer[i], k.outerScale[i]
}

// InvalidateOuter drops every pre-order outer vector (the pre-order
// analogue of InvalidateAll's CLV sweep).
func (k *Kernel) InvalidateOuter() {
	for i := range k.outer {
		k.outer[i] = nil
		k.outerScale[i] = nil
	}
}

// NewviewOuter stages one pre-order partial update. The combine is the
// post-order Newview combine itself — same staging, same block workers,
// same a·b operand order — writing into the outer table instead of a CLV
// slot.
func (k *Kernel) NewviewOuter(s GradStep) {
	dclv, dscale := k.outerSlot(s.Dst)
	k.newview(dclv, dscale, k.gradOperand(s.A), k.gradOperand(s.B), s.TA, s.TB)
}

// TraverseOuter stages a pre-order schedule in order (parents before
// children, which traversal.BuildGradient guarantees).
func (k *Kernel) TraverseOuter(steps []GradStep) {
	for _, s := range steps {
		k.NewviewOuter(s)
	}
}

// EvaluateGrad is Evaluate over GradRef operands: the weighted log
// likelihood for a virtual root on a branch of length t between p (the
// near vector) and q (the far one, which takes the P product), either
// of which may be a tip, a post-order CLV or an outer vector. On
// operands holding the same bytes it yields Evaluate's bits.
func (k *Kernel) EvaluateGrad(p, q GradRef, t float64) {
	k.evaluate(k.gradOperand(p), k.gradOperand(q), t)
}

// BranchGradient stages (d lnL/dt, d² lnL/dt²) for one branch of length
// t, where p is the conditional vector below the branch (a tip or
// post-order CLV) and q the outer vector above it; the pair is the
// finished program's next result (Gradient). The prepare and derivative
// passes are fused block by block: each site block's sum-table range is
// filled and immediately consumed by the same goroutine, so the
// arithmetic — and therefore every output bit — matches the
// PrepareDerivatives + Derivatives sequence on the same operands.
func (k *Kernel) BranchGradient(p, q GradRef, t float64) {
	k.prepare(k.sumTable(&k.sumTab), k.gradOperand(p), k.gradOperand(q), true, t)
	k.prepared = false
}

// BranchGradientCached is BranchGradient for plan edge b of nEdges,
// additionally keeping the edge's sum table (the t-independent P·Q
// contraction the prepare half computes) in a per-edge cache. The
// compute and therefore every output bit is exactly BranchGradient's —
// only the table the fused op fills differs — and subsequent
// BranchGradientReuse calls for the same edge evaluate new trial lengths
// from the cached table without re-contracting. The cache costs one sum
// table per edge and is retained for the kernel's lifetime once the
// batched smoother has run.
func (k *Kernel) BranchGradientCached(b, nEdges int, p, q GradRef, t float64) {
	if len(k.gradTabs) < nEdges {
		tabs := make([][]float64, nEdges)
		copy(tabs, k.gradTabs)
		k.gradTabs = tabs
	}
	k.prepare(k.sumTable(&k.gradTabs[b]), k.gradOperand(p), k.gradOperand(q), true, t)
	k.prepared = false
}

// BranchGradientReuse stages edge b's (d1, d2) at branch length t from
// the sum table a prior BranchGradientCached call stored — the derivative
// half of the fused op alone (the same block worker over the same block
// partition, so the bits match recomputing the fused op at t exactly).
// Valid only while the CLV and outer-vector state the table was
// contracted from is unchanged; the simultaneous Newton smoother
// guarantees that within a sweep's frozen inner loop.
func (k *Kernel) BranchGradientReuse(b int, t float64) {
	k.derivatives(k.gradTabs[b], t)
	k.prepared = false
}
