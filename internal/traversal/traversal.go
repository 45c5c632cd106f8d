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
func Ref(t *tree.Tree, n *tree.Node) likelihood.Ref {
	if n.IsTip() {
		return likelihood.TipAt(n.TaxonID)
	}
	return likelihood.InnerAt(n.VertexID - t.NTaxa())
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
		Dst: Ref(t, u),
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
		Dst: Ref(t, u),
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
			Dst: Ref(t, v),
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
	P, Q likelihood.Ref
	// T[c] is the evaluation edge's length in class c.
	T []float64
	// Active, when non-nil, restricts an Evaluate to the partitions it
	// marks (nil = all, the GradPlan.Active idiom): a rank runs no
	// traversal and no evaluation for an unmarked partition, leaves its
	// CLVs as they are and returns 0 in its result slot, which the caller
	// must not read. The model-parameter search marks the partitions whose
	// candidate changed (docs/PERFORMANCE.md §9). Only Evaluate honors it.
	Active []bool
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
		x := tree.XNode(t.HalfNodes[t.NTaxa()+3*int(s.Dst.Idx)])
		s.TA = x.Next.Length(c)
		s.TB = x.Next.Next.Length(c)
		dst = append(dst, s)
	}
	return dst
}

// maskFlag, set in the class-count word of an encoded descriptor, says an
// active-partition mask follows the header. An unmasked descriptor encodes
// to the frame it always had.
const maskFlag = 1 << 31

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
	n := 0
	if len(d.Steps) > 0 {
		n = len(d.Steps[0])
	}
	return descriptorWireSize(classes, n, d.Active != nil, len(d.Active))
}

// descriptorWireSize is the frame size of a descriptor of the given shape.
func descriptorWireSize(classes, steps int, masked bool, nMask int) int {
	size := 4 + 4 + 2*9 + 8*classes // header: classes, steps, P, Q, T
	if masked {
		size += 4 + (nMask+7)/8 // mask: length, one bit per partition
	}
	size += steps * (4 + 2*9)    // structure: dst + two refs
	size += classes * steps * 16 // per-class lengths
	return size
}

// Encode serializes the descriptor (little-endian, structure shared across
// classes, lengths per class; the active-partition mask, when there is
// one, as a bit set between the header and the structure).
func (d *Descriptor) Encode() []byte {
	buf := make([]byte, 0, d.WireSize())
	put32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	put64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	classes := uint32(len(d.Steps))
	if d.Active != nil {
		classes |= maskFlag
	}
	put32(classes)
	n := 0
	if len(d.Steps) > 0 {
		n = len(d.Steps[0])
	}
	put32(uint32(n))
	buf = putRef(buf, d.P)
	buf = putRef(buf, d.Q)
	for _, t := range d.T {
		put64(math.Float64bits(t))
	}
	if d.Active != nil {
		put32(uint32(len(d.Active)))
		bits := len(buf)
		buf = append(buf, make([]byte, (len(d.Active)+7)/8)...)
		for i, on := range d.Active {
			if on {
				buf[bits+i/8] |= 1 << (i % 8)
			}
		}
	}
	if n > 0 {
		for _, s := range d.Steps[0] {
			put32(uint32(s.Dst.Idx))
			buf = putRef(buf, s.A)
			buf = putRef(buf, s.B)
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

// Decode reverses Encode. The header is checked against the buffer length
// before anything is sized from it, so arbitrary bytes cost at most an
// error, and a frame that decodes re-encodes to the same bytes. Follow it
// with Validate before executing the descriptor.
func Decode(buf []byte) (*Descriptor, error) {
	const fixed = 4 + 4 + 2*9
	if len(buf) < fixed {
		return nil, fmt.Errorf("traversal: truncated descriptor")
	}
	word := binary.LittleEndian.Uint32(buf[0:])
	masked := word&maskFlag != 0
	classes := int(word &^ maskFlag)
	steps := int(binary.LittleEndian.Uint32(buf[4:]))
	if classes > 1<<20 || steps > 1<<24 {
		return nil, fmt.Errorf("traversal: implausible descriptor header (%d classes, %d steps)", classes, steps)
	}
	nMask := 0
	if masked {
		at := fixed + 8*classes
		if len(buf) < at+4 {
			return nil, fmt.Errorf("traversal: truncated descriptor")
		}
		n := binary.LittleEndian.Uint32(buf[at:])
		if n > 1<<20 {
			return nil, fmt.Errorf("traversal: implausible descriptor mask (%d partitions)", n)
		}
		nMask = int(n)
	}
	// Counts this small cannot overflow the size on a 64-bit int.
	if want := descriptorWireSize(classes, steps, masked, nMask); len(buf) != want {
		return nil, fmt.Errorf("traversal: descriptor is %d bytes, its header says %d", len(buf), want)
	}
	r := planReader{buf: buf, pos: 8, what: "descriptor"}
	d := &Descriptor{T: make([]float64, classes), Steps: make([][]likelihood.Step, classes)}
	d.P = r.ref()
	d.Q = r.ref()
	for c := range d.T {
		d.T[c] = r.f64()
	}
	if masked {
		r.pos += 4
		d.Active = make([]bool, nMask)
		for i := range d.Active {
			d.Active[i] = buf[r.pos+i/8]&(1<<(i%8)) != 0
		}
		if nMask%8 != 0 && buf[r.pos+nMask/8]>>(nMask%8) != 0 {
			r.err = fmt.Errorf("traversal: descriptor mask has bits beyond its %d partitions", nMask)
		}
		r.pos += (nMask + 7) / 8
	}
	var structure []likelihood.Step
	if steps > 0 {
		structure = make([]likelihood.Step, steps)
	}
	for i := range structure {
		structure[i] = likelihood.Step{Dst: r.slot(likelihood.Inner), A: r.ref(), B: r.ref()}
	}
	if r.err != nil {
		return nil, r.err
	}
	for c := range d.Steps {
		cs := structure
		if c > 0 {
			cs = append([]likelihood.Step(nil), structure...)
		}
		for i := range cs {
			cs[i].TA, cs[i].TB = r.f64(), r.f64()
		}
		d.Steps[c] = cs
	}
	return d, nil
}

// Validate checks that a rank holding nPart partitions of an nTaxa-taxon
// tree can execute the descriptor: one schedule and one root-edge length
// per partition — what the fork-join wire always carries, joint-branch
// descriptors being padded to the partition count — tips below nTaxa, CLV
// slots below nTaxa−2, no outer vector anywhere (a descriptor is a
// post-order schedule), and a mask, when there is one, of nPart entries.
// Decode cannot know the tree or the partition count; a receiver calls
// Validate before handing a decoded descriptor to its kernels, which index
// their buffers from these numbers.
func (d *Descriptor) Validate(nTaxa, nPart int) error {
	if len(d.Steps) != nPart || len(d.T) != nPart {
		return fmt.Errorf("traversal: descriptor has %d schedules and %d root lengths for %d partitions", len(d.Steps), len(d.T), nPart)
	}
	if d.Active != nil && len(d.Active) != nPart {
		return fmt.Errorf("traversal: descriptor masks %d partitions of %d", len(d.Active), nPart)
	}
	bad := refOutside(d.P, nTaxa, 0) || refOutside(d.Q, nTaxa, 0)
	for _, cs := range d.Steps {
		if len(cs) != len(d.Steps[0]) {
			return fmt.Errorf("traversal: descriptor schedules differ in length (%d and %d steps)", len(cs), len(d.Steps[0]))
		}
		if len(cs) > nTaxa-2 {
			return fmt.Errorf("traversal: descriptor schedule of %d steps for a %d-taxon tree's %d inner vertices", len(cs), nTaxa, nTaxa-2)
		}
		for _, s := range cs {
			bad = bad || refOutside(s.Dst, nTaxa, 0) || refOutside(s.A, nTaxa, 0) || refOutside(s.B, nTaxa, 0)
		}
	}
	if bad {
		return fmt.Errorf("traversal: descriptor addresses a slot outside a %d-taxon tree", nTaxa)
	}
	return nil
}
