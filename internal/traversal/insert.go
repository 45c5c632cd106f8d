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
	// Pre[c][i].Dst, is candidate i's near operand.
	Pre [][]likelihood.Step
	// Far[i] is candidate i's far operand: the tip or post-order CLV at
	// the end away from the merged edge.
	Far []likelihood.Ref
	// Half[c][i] is the length either half of candidate i's edge gets in
	// class c when the subtree is inserted into it (tree.Regraft's rule).
	Half [][]float64
	// Sub is the pruned subtree's vector, SubT[c] the class-c length of
	// the branch it hangs on.
	Sub  likelihood.Ref
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
	ref := func(h *tree.Node) likelihood.Ref {
		if h.IsTip() || h.X {
			return Ref(t, h)
		}
		return likelihood.OuterAt(h.Back.VertexID)
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
		step := likelihood.Step{Dst: likelihood.OuterAt(m.Back.VertexID), A: ref(a.Back), B: ref(b.Back)}
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
	put32(uint32(len(pl.SubT)))
	put32(uint32(len(pl.Post[0])))
	put32(uint32(len(pl.Far)))
	buf = putRef(buf, pl.Sub)
	for _, s := range pl.Post[0] {
		put32(uint32(s.Dst.Idx))
		buf = putRef(buf, s.A)
		buf = putRef(buf, s.B)
	}
	for i, s := range pl.Pre[0] {
		put32(uint32(s.Dst.Idx))
		buf = putRef(buf, s.A)
		buf = putRef(buf, s.B)
		buf = putRef(buf, pl.Far[i])
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

// The operand codec all three frames share — a descriptor, a gradient
// and an insertion plan. An operand is 9 bytes: its kind (0 a CLV slot,
// 1 a tip, 2 an outer vector; a descriptor's first two are RAxML's tip
// byte) and its index as 8 bytes. A step's destination is a 4-byte
// index whose kind the frame position fixes.

// putRef appends r's encoding to buf.
func putRef(buf []byte, r likelihood.Ref) []byte {
	buf = append(buf, byte(r.Kind))
	return binary.LittleEndian.AppendUint64(buf, uint64(uint32(r.Idx)))
}

// refOutside reports whether r addresses no slot of a tree of nTaxa taxa
// whose kernels may read nOuter outer-vector slots: tips run below nTaxa,
// CLV slots below nTaxa−2. nOuter is 0 where only a post-order operand
// belongs.
func refOutside(r likelihood.Ref, nTaxa, nOuter int) bool {
	limit := [...]int{
		likelihood.Inner: nTaxa - 2,
		likelihood.Tip:   nTaxa,
		likelihood.Outer: nOuter,
	}
	return int(r.Kind) >= len(limit) || r.Idx < 0 || int(r.Idx) >= limit[r.Kind]
}

// planReader reads the fixed-width fields of a frame whose length the
// decoder has already checked against its header, so no read can run
// out. A malformed field is reported through err, naming the frame
// (what).
type planReader struct {
	buf  []byte
	pos  int
	what string
	err  error
}

// slot reads a step's destination, a slot of the given kind.
func (r *planReader) slot(kind likelihood.RefKind) likelihood.Ref {
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	if v > math.MaxInt32 {
		r.err = fmt.Errorf("traversal: bad destination slot %d in %s", v, r.what)
	}
	r.pos += 4
	return likelihood.Ref{Kind: kind, Idx: int32(v)}
}

// ref reads an operand.
func (r *planReader) ref() likelihood.Ref {
	kind, idx := likelihood.RefKind(r.buf[r.pos]), binary.LittleEndian.Uint64(r.buf[r.pos+1:])
	if kind > likelihood.Outer || idx > math.MaxInt32 {
		r.err = fmt.Errorf("traversal: bad operand in %s (kind %d, index %d)", r.what, kind, idx)
	}
	r.pos += 9
	return likelihood.Ref{Kind: kind, Idx: int32(idx)}
}

// f64 reads a branch length.
func (r *planReader) f64() float64 {
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return v
}

// Validate checks that every slot the plan addresses exists on a tree of
// nTaxa taxa: tips below nTaxa, CLV slots below nTaxa−2, outer slots
// below 2·nTaxa−2 (outer vectors are indexed by vertex), and none in the
// post-order schedule. Decode cannot know the tree size; a receiver calls
// Validate before handing a decoded plan to its kernels, which index (and
// grow) their buffers from these numbers.
func (pl *InsertPlan) Validate(nTaxa int) error {
	nOuter := 2*nTaxa - 2
	bad := refOutside(pl.Sub, nTaxa, nOuter)
	for _, s := range pl.Post[0] {
		bad = bad || refOutside(s.Dst, nTaxa, 0) || refOutside(s.A, nTaxa, 0) || refOutside(s.B, nTaxa, 0)
	}
	for i, s := range pl.Pre[0] {
		bad = bad || refOutside(s.Dst, nTaxa, nOuter) || refOutside(s.A, nTaxa, nOuter) ||
			refOutside(s.B, nTaxa, nOuter) || refOutside(pl.Far[i], nTaxa, nOuter)
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
		pl.Post[0][i] = likelihood.Step{Dst: r.slot(likelihood.Inner), A: r.ref(), B: r.ref()}
	}
	for i := range pl.Pre[0] {
		pl.Pre[0][i] = likelihood.Step{Dst: r.slot(likelihood.Outer), A: r.ref(), B: r.ref()}
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
