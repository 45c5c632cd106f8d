package traversal

// Insertion plans: every regraft candidate of one SPR prune point scored
// from the two directional vectors of its edge (docs/PERFORMANCE.md §8).
//
// With the subtree pruned, root the remaining tree on the merged edge.
// The post-order pass leaves at every vertex the vector looking away
// from the prune point; one pre-order step per candidate edge adds the
// vector at its near end looking back toward it. Inserting the subtree
// into a candidate edge then needs no traversal at all: the new vertex
// is the combination of the edge's two vectors across half its length
// each, and the score is an evaluation against the subtree's own vector
// — the arithmetic a forced full traversal of the regrafted tree
// performs at its last step and at its root, on operands holding the
// same bytes. All candidates go to the engine in one call and come back
// through one collective.
//
// Like the descriptor and the gradient plan, both engines share the
// construction: the de-centralized engine builds the plan on every
// rank, the fork-join master broadcasts its encoding.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/likelihood"
	"repro/internal/tree"
)

// InsertPlan is the schedule that scores every insertion of one pruned
// subtree. Its slices are reused by the next Build or Decode.
type InsertPlan struct {
	// Post[c] is the post-order schedule with class-c branch lengths. It
	// validates the subtree's vector and, at every vertex of the
	// remaining tree, the vector looking away from the merged edge.
	Post [][]likelihood.Step
	// Pre[c] holds one pre-order step per candidate, in
	// tree.CandidateEdges order: the vector at the candidate's near end
	// looking back toward the merged edge, written to the outer slot of
	// the far-end vertex (the gradient plan's convention). That slot,
	// GradOuter(Pre[c][i].Dst), is candidate i's near operand.
	Pre [][]likelihood.GradStep
	// Far[i] is candidate i's far operand: the tip or post-order CLV at
	// the end away from the merged edge.
	Far []likelihood.GradRef
	// Half[c][i] is the length either half of candidate i's edge gets in
	// class c when the subtree is inserted into it (tree.Regraft's rule).
	Half [][]float64
	// Sub is the pruned subtree's vector, SubT[c] the class-c length of
	// the branch it hangs on.
	Sub  likelihood.GradRef
	SubT []float64
}

// NCandidates returns the number of insertions the plan scores.
func (pl *InsertPlan) NCandidates() int { return len(pl.Far) }

// resize returns *buf with length n, reallocating only on growth.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Build fills the plan for the subtree ps pruned from t, with cands the
// insertion edges ps.CandidateEdges(1, radius) returned. dirty is the
// search's dirty-slot overlay (OrientReuse); nil forces every post-order
// step, for a caller that holds no record of the engine's CLV state.
//
// The post-order vectors all look toward the prune point, none contains
// it, so they stay valid when the subtree is restored in place. The
// pre-order steps write outer slots only, and scoring writes no vector
// at all: executing the plan changes no CLV that a traversal of the
// restored tree could read.
func (pl *InsertPlan) Build(t *tree.Tree, ps *tree.PrunedSubtree, cands []*tree.Node, dirty []bool) {
	classes := t.BLClasses
	p := ps.Root
	q, r := ps.MergedEdge()
	sub := p.Back

	resize(&pl.Post, classes)
	post := pl.Post[0][:0]
	if dirty != nil {
		post = OrientReuse(t, q, 0, dirty, post)
		post = OrientReuse(t, r, 0, dirty, post)
		post = OrientReuse(t, sub, 0, dirty, post)
	} else {
		post = Orient(t, q, 0, true, post)
		post = Orient(t, r, 0, true, post)
		post = Orient(t, sub, 0, true, post)
	}
	pl.Post[0] = post
	for c := 1; c < classes; c++ {
		pl.Post[c] = classSteps(t, post, c, pl.Post[c][:0])
	}

	// After the post-order pass a vertex's X bit faces the merged edge,
	// so of a candidate's two operands the sibling subtree is in its CLV
	// slot (X set on the half-node facing the candidate's vertex) and
	// the rootward one is the outer vector the candidate before it on
	// the path computed — or, next to the merged edge, the CLV across it.
	ref := func(h *tree.Node) likelihood.GradRef {
		switch {
		case h.IsTip():
			return likelihood.GradTip(int32(h.TaxonID))
		case h.X:
			return likelihood.GradInner(Slot(t, h))
		}
		return likelihood.GradOuter(int32(h.Back.VertexID))
	}
	resize(&pl.Pre, classes)
	resize(&pl.Half, classes)
	resize(&pl.Far, len(cands))
	for c := 0; c < classes; c++ {
		resize(&pl.Pre[c], len(cands))
		resize(&pl.Half[c], len(cands))
	}
	for i, m := range cands {
		// Operands in Orient's order (m.Next, then m.Next.Next): a forced
		// traversal of the regrafted tree computes this vertex from the
		// same operands in the same order.
		a, b := m.Next, m.Next.Next
		step := likelihood.GradStep{Dst: int32(m.Back.VertexID), A: ref(a.Back), B: ref(b.Back)}
		pl.Far[i] = ref(m.Back)
		for c := 0; c < classes; c++ {
			step.TA, step.TB = a.Length(c), b.Length(c)
			pl.Pre[c][i] = step
			pl.Half[c][i] = math.Max(m.Length(c)/2, tree.MinBranchLength)
		}
	}

	pl.Sub = ref(sub)
	resize(&pl.SubT, classes)
	for c := range pl.SubT {
		pl.SubT[c] = p.Length(c)
	}
}

// WireSize returns the number of bytes Encode produces.
func (pl *InsertPlan) WireSize() int {
	return insertWireSize(len(pl.SubT), len(pl.Post[0]), len(pl.Far))
}

// insertWireSize is the encoded size of a plan with the given counts.
// Header: classes, post steps, candidates (12 bytes), subtree ref (9).
// Structure: per post step dst + two node refs, per candidate the
// pre-order dst + two refs and the far operand. Payload per class:
// TA/TB of every post and pre-order step, one half length per
// candidate, the subtree branch.
func insertWireSize(classes, nPost, nCands int) int {
	return 12 + 9 + nPost*(4+2*9) + nCands*(4+3*9) + classes*(nPost*16+nCands*24+8)
}

// Encode serializes the plan (little-endian, structure shared across
// classes, lengths per class — the Descriptor wire idiom).
func (pl *InsertPlan) Encode() []byte {
	buf := make([]byte, 0, pl.WireSize())
	put32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	putF := func(v float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)) }
	putRef := func(r likelihood.GradRef) {
		buf = append(buf, byte(r.Kind))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(uint32(r.Idx)))
	}
	putNode := func(r likelihood.NodeRef) {
		if r.Tip {
			putRef(likelihood.GradTip(r.Idx))
		} else {
			putRef(likelihood.GradInner(r.Idx))
		}
	}
	put32(uint32(len(pl.SubT)))
	put32(uint32(len(pl.Post[0])))
	put32(uint32(len(pl.Far)))
	putRef(pl.Sub)
	for _, s := range pl.Post[0] {
		put32(uint32(s.Dst))
		putNode(s.A)
		putNode(s.B)
	}
	for i, s := range pl.Pre[0] {
		put32(uint32(s.Dst))
		putRef(s.A)
		putRef(s.B)
		putRef(pl.Far[i])
	}
	for c := range pl.SubT {
		for _, s := range pl.Post[c] {
			putF(s.TA)
			putF(s.TB)
		}
		for _, s := range pl.Pre[c] {
			putF(s.TA)
			putF(s.TB)
		}
		for _, h := range pl.Half[c] {
			putF(h)
		}
		putF(pl.SubT[c])
	}
	return buf
}

// refOutside reports whether r addresses no slot of a tree of nTaxa taxa
// whose kernels hold nOuter outer-vector slots: tips run below nTaxa, CLV
// slots below nTaxa−2.
func refOutside(r likelihood.GradRef, nTaxa, nOuter int) bool {
	limit := [...]int{
		likelihood.GradTipKind:   nTaxa,
		likelihood.GradInnerKind: nTaxa - 2,
		likelihood.GradOuterKind: nOuter,
	}
	return int(r.Kind) >= len(limit) || r.Idx < 0 || int(r.Idx) >= limit[r.Kind]
}

// planReader reads the fixed-width fields of a frame — a descriptor, a
// gradient or an insertion plan — whose length the decoder has already
// checked against its header, so no read can run out. A malformed field
// is reported through err, naming the frame (what).
type planReader struct {
	buf  []byte
	pos  int
	what string
	err  error
}

// slot reads a destination slot index.
func (r *planReader) slot() int32 {
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	if v > math.MaxInt32 {
		r.err = fmt.Errorf("traversal: bad destination slot %d in %s", v, r.what)
	}
	r.pos += 4
	return int32(v)
}

// ref reads an operand: one kind byte and an 8-byte index.
func (r *planReader) ref() likelihood.GradRef {
	kind, idx := likelihood.GradKind(r.buf[r.pos]), binary.LittleEndian.Uint64(r.buf[r.pos+1:])
	if kind > likelihood.GradOuterKind || idx > math.MaxInt32 {
		r.err = fmt.Errorf("traversal: bad operand in %s (kind %d, index %d)", r.what, kind, idx)
	}
	r.pos += 9
	return likelihood.GradRef{Kind: kind, Idx: int32(idx)}
}

// node reads a descriptor operand: a tip byte — 1 a tip, 0 a CLV slot,
// the reverse of a GradRef kind — and an 8-byte index.
func (r *planReader) node() likelihood.NodeRef {
	tip, idx := r.buf[r.pos], binary.LittleEndian.Uint64(r.buf[r.pos+1:])
	if tip > 1 || idx > math.MaxInt32 {
		r.err = fmt.Errorf("traversal: bad operand in %s (tip byte %d, index %d)", r.what, tip, idx)
	}
	r.pos += 9
	return likelihood.NodeRef{Tip: tip == 1, Idx: int32(idx)}
}

// f64 reads a branch length.
func (r *planReader) f64() float64 {
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return v
}

// Validate checks that every slot the plan addresses exists on a tree of
// nTaxa taxa: tips below nTaxa, CLV slots below nTaxa−2, outer slots
// below 2·nTaxa−2 (outer vectors are indexed by vertex). Decode cannot
// know the tree size; a receiver calls Validate before handing a decoded
// plan to its kernels, which index (and grow) their buffers from these
// numbers.
func (pl *InsertPlan) Validate(nTaxa int) error {
	bad := false
	ref := func(r likelihood.GradRef) {
		bad = bad || refOutside(r, nTaxa, 2*nTaxa-2)
	}
	ref(pl.Sub)
	for _, s := range pl.Post[0] {
		ref(likelihood.GradInner(s.Dst))
		ref(s.A.Grad())
		ref(s.B.Grad())
	}
	for i, s := range pl.Pre[0] {
		ref(likelihood.GradOuter(s.Dst))
		ref(s.A)
		ref(s.B)
		ref(pl.Far[i])
	}
	if bad {
		return fmt.Errorf("traversal: insertion plan addresses a slot outside a %d-taxon tree", nTaxa)
	}
	return nil
}

// Decode reverses Encode into pl, reusing its slices. The header is
// checked against the buffer length before anything is sized from it,
// so arbitrary bytes cost at most an error. Follow it with Validate
// before executing the plan.
func (pl *InsertPlan) Decode(buf []byte) error {
	if len(buf) < 12 {
		return fmt.Errorf("traversal: truncated insertion plan")
	}
	classes := int(binary.LittleEndian.Uint32(buf[0:]))
	nPost := int(binary.LittleEndian.Uint32(buf[4:]))
	nCands := int(binary.LittleEndian.Uint32(buf[8:]))
	if classes < 1 || classes > 1<<20 || nPost > 1<<24 || nCands > 1<<24 {
		return fmt.Errorf("traversal: implausible insertion-plan header (%d classes, %d steps, %d candidates)", classes, nPost, nCands)
	}
	// Counts this small cannot overflow the size on a 64-bit int.
	if want := insertWireSize(classes, nPost, nCands); len(buf) != want {
		return fmt.Errorf("traversal: insertion plan is %d bytes, its header says %d", len(buf), want)
	}
	r := planReader{buf: buf, pos: 12, what: "insertion plan"}
	getNode := func() likelihood.NodeRef {
		ref := r.ref()
		if ref.Kind == likelihood.GradOuterKind {
			r.err = fmt.Errorf("traversal: outer vector as a post-order operand in insertion plan")
		}
		return likelihood.NodeRef{Tip: ref.Kind == likelihood.GradTipKind, Idx: ref.Idx}
	}

	pl.Sub = r.ref()
	resize(&pl.Post, classes)
	resize(&pl.Pre, classes)
	resize(&pl.Half, classes)
	resize(&pl.SubT, classes)
	resize(&pl.Far, nCands)
	for c := 0; c < classes; c++ {
		resize(&pl.Post[c], nPost)
		resize(&pl.Pre[c], nCands)
		resize(&pl.Half[c], nCands)
	}
	for i := range pl.Post[0] {
		pl.Post[0][i] = likelihood.Step{Dst: r.slot(), A: getNode(), B: getNode()}
	}
	for i := range pl.Pre[0] {
		pl.Pre[0][i] = likelihood.GradStep{Dst: r.slot(), A: r.ref(), B: r.ref()}
		pl.Far[i] = r.ref()
	}
	if r.err != nil {
		return r.err
	}
	for c := 0; c < classes; c++ {
		if c > 0 {
			copy(pl.Post[c], pl.Post[0])
			copy(pl.Pre[c], pl.Pre[0])
		}
		for i := range pl.Post[c] {
			pl.Post[c][i].TA, pl.Post[c][i].TB = r.f64(), r.f64()
		}
		for i := range pl.Pre[c] {
			pl.Pre[c][i].TA, pl.Pre[c][i].TB = r.f64(), r.f64()
		}
		for i := range pl.Half[c] {
			pl.Half[c][i] = r.f64()
		}
		pl.SubT[c] = r.f64()
	}
	return nil
}
