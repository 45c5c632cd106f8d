// Package traversal computes traversal descriptors: the post-order
// schedules of CLV updates that make the conditional likelihood vectors at
// the endpoints of a chosen edge valid, so the likelihood (or its
// derivatives) can be evaluated at a virtual root on that edge.
//
// In the fork-join scheme the master computes a descriptor and broadcasts
// it to every worker before each parallel region — the traffic the paper's
// Table I shows to dominate total MPI volume (30–97%). In the
// de-centralized scheme every rank computes the same descriptor locally
// and nothing is sent. Both engines share this package, which is exactly
// how the paper achieves "the same tree search algorithm".
package traversal

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/likelihood"
	"repro/internal/tree"
)

// Ref converts a tree half-node into a kernel operand: tips address taxon
// rows, inner vertices address CLV slots (VertexID − nTaxa).
func Ref(t *tree.Tree, n *tree.Node) likelihood.NodeRef {
	if n.IsTip() {
		return likelihood.TipRef(n.TaxonID)
	}
	return likelihood.InnerRef(n.VertexID - t.NTaxa())
}

// Slot returns the CLV slot of an inner half-node.
func Slot(t *tree.Tree, n *tree.Node) int32 {
	return int32(n.VertexID - t.NTaxa())
}

// Orient appends to steps the CLV updates required to make the CLV at u
// valid for a virtual root on u's own edge, honoring the per-vertex X
// orientation bits: a vertex whose X bit already points along the needed
// direction is assumed valid and recursion stops there (a *partial*
// traversal — the paper notes descriptors average only 4–5 nodes). With
// force set, every vertex in the subtree is recomputed regardless of X
// bits (required after a model-parameter change). X bits are rotated to
// describe the new state.
//
// blClass selects which branch-length linkage class the step lengths are
// taken from (0 under joint estimation; the partition index under -M).
func Orient(t *tree.Tree, u *tree.Node, blClass int, force bool, steps []likelihood.Step) []likelihood.Step {
	if u.IsTip() {
		return steps
	}
	if u.X && !force {
		return steps
	}
	l := u.Next.Back
	r := u.Next.Next.Back
	steps = Orient(t, l, blClass, force, steps)
	steps = Orient(t, r, blClass, force, steps)
	tree.OrientX(u)
	return append(steps, likelihood.Step{
		Dst: Slot(t, u),
		A:   Ref(t, l),
		B:   Ref(t, r),
		TA:  u.Next.Length(blClass),
		TB:  u.Next.Next.Length(blClass),
	})
}

// ForEdge computes the descriptor that validates both endpoints of the
// edge at p (p and p.Back) for a virtual root on that edge.
func ForEdge(t *tree.Tree, p *tree.Node, blClass int, force bool) []likelihood.Step {
	steps := Orient(t, p, blClass, force, nil)
	return Orient(t, p.Back, blClass, force, steps)
}

// OrientReuse is Orient(force=false) extended with a dirty-slot overlay —
// the incremental-traversal machinery of docs/PERFORMANCE.md. Recursion
// stops at a vertex only when its X bit already faces the needed
// direction AND its slot is not marked dirty; on a stop the subtree
// below is still swept so every dirty slot in it is refreshed
// (children-first and rotated toward the evaluation edge, exactly the
// state a forced traversal would leave it in). Refreshed slots are
// cleared in dirty, so after the descriptor executes, every CLV the
// search can subsequently read holds the bytes a forced full traversal
// would have produced — the invariant the search layer's bit-identity
// rests on.
func OrientReuse(t *tree.Tree, u *tree.Node, blClass int, dirty []bool, steps []likelihood.Step) []likelihood.Step {
	if u.IsTip() {
		return steps
	}
	slot := Slot(t, u)
	if u.X && !dirty[slot] {
		steps = sweepDirty(t, u.Next.Back, blClass, dirty, steps)
		return sweepDirty(t, u.Next.Next.Back, blClass, dirty, steps)
	}
	l := u.Next.Back
	r := u.Next.Next.Back
	steps = OrientReuse(t, l, blClass, dirty, steps)
	steps = OrientReuse(t, r, blClass, dirty, steps)
	tree.OrientX(u)
	dirty[slot] = false
	return append(steps, likelihood.Step{
		Dst: slot,
		A:   Ref(t, l),
		B:   Ref(t, r),
		TA:  u.Next.Length(blClass),
		TB:  u.Next.Next.Length(blClass),
	})
}

// sweepDirty refreshes every dirty slot in the subtree entered through v
// (v.Back faces the evaluation edge) without touching valid clean
// vertices. A refreshed vertex is rotated toward the evaluation side
// (OrientX), matching the orientation a forced traversal would give it;
// its children were swept first, so a refresh never reads a stale CLV
// that is itself marked dirty.
func sweepDirty(t *tree.Tree, v *tree.Node, blClass int, dirty []bool, steps []likelihood.Step) []likelihood.Step {
	if v.IsTip() {
		return steps
	}
	l := v.Next.Back
	r := v.Next.Next.Back
	steps = sweepDirty(t, l, blClass, dirty, steps)
	steps = sweepDirty(t, r, blClass, dirty, steps)
	slot := Slot(t, v)
	if dirty[slot] {
		tree.OrientX(v)
		dirty[slot] = false
		steps = append(steps, likelihood.Step{
			Dst: slot,
			A:   Ref(t, l),
			B:   Ref(t, r),
			TA:  v.Next.Length(blClass),
			TB:  v.Next.Next.Length(blClass),
		})
	}
	return steps
}

// ForEdgeReuse is ForEdge with the dirty-slot overlay of OrientReuse.
func ForEdgeReuse(t *tree.Tree, p *tree.Node, blClass int, dirty []bool) []likelihood.Step {
	steps := OrientReuse(t, p, blClass, dirty, nil)
	return OrientReuse(t, p.Back, blClass, dirty, steps)
}

// Descriptor bundles the CLV schedule for every branch-length class with
// the evaluation edge, ready for execution or (in the fork-join engine)
// for broadcast. Steps[c] is the schedule with class-c branch lengths;
// under joint branch lengths there is a single class and a single
// schedule, under -M there are p schedules sharing one structure but
// carrying p·(2n−3)-scale branch-length payloads — the size blow-up the
// paper measures in Table I.
type Descriptor struct {
	// Steps[c] is the CLV schedule for linkage class c.
	Steps [][]likelihood.Step
	// P and Q are the evaluation-edge endpoints.
	P, Q likelihood.NodeRef
	// T[c] is the evaluation edge's length in class c.
	T []float64
}

// Build computes the full multi-class descriptor for the edge at p. The
// structural schedule is computed once (classes share topology and X
// bits); per-class branch lengths are then filled in.
func Build(t *tree.Tree, p *tree.Node, force bool) *Descriptor {
	return fillClasses(t, p, ForEdge(t, p, 0, force))
}

// BuildReuse computes the multi-class descriptor for the edge at p with
// the dirty-slot overlay of OrientReuse: beyond orienting the evaluation
// edge it refreshes every dirty slot anywhere in the tree, and clears
// the flags it refreshed. Executing the descriptor leaves the CLV arrays
// byte-identical to what Build(force=true) would have produced.
func BuildReuse(t *tree.Tree, p *tree.Node, dirty []bool) *Descriptor {
	return fillClasses(t, p, ForEdgeReuse(t, p, 0, dirty))
}

// fillClasses wraps a class-0 schedule into a full multi-class
// descriptor by re-reading per-class branch lengths from the tree.
func fillClasses(t *tree.Tree, p *tree.Node, base []likelihood.Step) *Descriptor {
	d := &Descriptor{
		P: Ref(t, p),
		Q: Ref(t, p.Back),
		T: make([]float64, t.BLClasses),
	}
	d.Steps = make([][]likelihood.Step, t.BLClasses)
	d.Steps[0] = base
	d.T[0] = p.Length(0)
	for c := 1; c < t.BLClasses; c++ {
		d.Steps[c] = classSteps(t, base, c, nil)
		d.T[c] = p.Length(c)
	}
	return d
}

// classSteps appends to dst the class-0 schedule base with its branch
// lengths re-read from the tree for linkage class c.
func classSteps(t *tree.Tree, base []likelihood.Step, c int, dst []likelihood.Step) []likelihood.Step {
	for _, s := range base {
		// The step's Dst identifies the inner vertex whose ring supplies
		// the lengths: the ring member holding the X bit is the one the
		// step computed, its two siblings carry the child branches.
		x := tree.XNode(t.HalfNodes[t.NTaxa()+3*int(s.Dst)])
		s.TA = x.Next.Length(c)
		s.TB = x.Next.Next.Length(c)
		dst = append(dst, s)
	}
	return dst
}

// WireSize returns the number of bytes Encode produces — the quantity the
// fork-join engine's Table I metering charges per descriptor broadcast.
func (d *Descriptor) WireSize() int {
	return d.WireSizeForClasses(len(d.T))
}

// WireSizeForClasses returns the encoded size this descriptor would have
// after replicating its single class across `classes` branch-length
// classes (the fork-join engine's padDescriptor). It lets a single-rank
// master meter the historically faithful byte count without building and
// encoding the padded copy.
func (d *Descriptor) WireSizeForClasses(classes int) int {
	size := 4 + 4 + 2*9 + 8*classes // header: classes, steps, P, Q, T
	if len(d.Steps) > 0 {
		size += len(d.Steps[0]) * (4 + 2*9)    // structure: dst + two refs
		size += classes * len(d.Steps[0]) * 16 // per-class lengths
	}
	return size
}

// Encode serializes the descriptor (little-endian, structure shared across
// classes, lengths per class).
func (d *Descriptor) Encode() []byte {
	buf := make([]byte, 0, d.WireSize())
	put32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf = append(buf, b[:]...)
	}
	put64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf = append(buf, b[:]...)
	}
	putRef := func(r likelihood.NodeRef) {
		if r.Tip {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		put64(uint64(uint32(r.Idx)))
	}
	put32(uint32(len(d.Steps)))
	n := 0
	if len(d.Steps) > 0 {
		n = len(d.Steps[0])
	}
	put32(uint32(n))
	putRef(d.P)
	putRef(d.Q)
	for _, t := range d.T {
		put64(math.Float64bits(t))
	}
	if n > 0 {
		for _, s := range d.Steps[0] {
			put32(uint32(s.Dst))
			putRef(s.A)
			putRef(s.B)
		}
		for _, cs := range d.Steps {
			for _, s := range cs {
				put64(math.Float64bits(s.TA))
				put64(math.Float64bits(s.TB))
			}
		}
	}
	return buf
}

// Decode reverses Encode.
func Decode(buf []byte) (*Descriptor, error) {
	pos := 0
	get32 := func() (uint32, error) {
		if pos+4 > len(buf) {
			return 0, fmt.Errorf("traversal: truncated descriptor")
		}
		v := binary.LittleEndian.Uint32(buf[pos:])
		pos += 4
		return v, nil
	}
	get64 := func() (uint64, error) {
		if pos+8 > len(buf) {
			return 0, fmt.Errorf("traversal: truncated descriptor")
		}
		v := binary.LittleEndian.Uint64(buf[pos:])
		pos += 8
		return v, nil
	}
	getRef := func() (likelihood.NodeRef, error) {
		if pos+1 > len(buf) {
			return likelihood.NodeRef{}, fmt.Errorf("traversal: truncated descriptor")
		}
		tip := buf[pos] == 1
		pos++
		v, err := get64()
		if err != nil {
			return likelihood.NodeRef{}, err
		}
		return likelihood.NodeRef{Tip: tip, Idx: int32(uint32(v))}, nil
	}
	nClasses, err := get32()
	if err != nil {
		return nil, err
	}
	nSteps, err := get32()
	if err != nil {
		return nil, err
	}
	if nClasses > 1<<20 || nSteps > 1<<24 {
		return nil, fmt.Errorf("traversal: implausible descriptor header (%d classes, %d steps)", nClasses, nSteps)
	}
	d := &Descriptor{T: make([]float64, nClasses), Steps: make([][]likelihood.Step, nClasses)}
	if d.P, err = getRef(); err != nil {
		return nil, err
	}
	if d.Q, err = getRef(); err != nil {
		return nil, err
	}
	for c := range d.T {
		v, err := get64()
		if err != nil {
			return nil, err
		}
		d.T[c] = math.Float64frombits(v)
	}
	structure := make([]likelihood.Step, nSteps)
	for i := range structure {
		dst, err := get32()
		if err != nil {
			return nil, err
		}
		structure[i].Dst = int32(dst)
		if structure[i].A, err = getRef(); err != nil {
			return nil, err
		}
		if structure[i].B, err = getRef(); err != nil {
			return nil, err
		}
	}
	for c := 0; c < int(nClasses); c++ {
		cs := make([]likelihood.Step, nSteps)
		copy(cs, structure)
		for i := range cs {
			ta, err := get64()
			if err != nil {
				return nil, err
			}
			tb, err := get64()
			if err != nil {
				return nil, err
			}
			cs[i].TA = math.Float64frombits(ta)
			cs[i].TB = math.Float64frombits(tb)
		}
		d.Steps[c] = cs
	}
	if pos != len(buf) {
		return nil, fmt.Errorf("traversal: %d trailing bytes in descriptor", len(buf)-pos)
	}
	return d, nil
}
