package likelihood

// Pre-order ("outward") conditional vectors (docs/PERFORMANCE.md §5).
//
// The post-order CLV at an inner vertex summarizes the subtree *below*
// it. The pre-order outer vector at a node summarizes everything on the
// *other* side of its parent edge — the rest of the tree as seen from
// the node, looking up. With both in hand the derivative of the log
// likelihood w.r.t. ANY branch is one sum table contracted from the
// branch's post-order CLV and its outer vector (sumtable.go), without
// re-rooting a traversal per branch. One post-order pass plus one
// pre-order pass therefore makes every branch's (d1, d2) available —
// O(1) traversals instead of O(branches).
//
// Bit-identity with re-rooting holds by construction: the pre-order
// combine below is the exact Newview combine (same block workers, same
// operand order), so an edge's outer vector holds the bytes the CLV a
// traversal re-rooted at the edge would compute, and its sum table is
// contracted by the same Contract from the same bytes (asserted by the
// gradient identity tests here and, per call of a whole search, by
// internal/search's twin engine).

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

// Grad returns the GradRef naming the tip or CLV slot r names.
func (r NodeRef) Grad() GradRef {
	if r.Tip {
		return GradTip(r.Idx)
	}
	return GradInner(r.Idx)
}

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
