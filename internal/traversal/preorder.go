package traversal

// Pre-order ("outward") gradient schedules: the root-to-tip analogue of
// the post-order descriptors in traversal.go. A GradPlan lists, for a
// tree rooted at the virtual root on tip 0's edge, (a) the pre-order
// steps that compute every outer vector (likelihood.Newview into an
// outer slot) and (b) one (P, Q) operand pair per edge, the edge a
// kernel contracts into sum-table slot b (likelihood.Kernel.Contract).
// Executing the
// post-order full traversal, then the plan's pre-order steps, makes (d1,
// d2) of EVERY branch computable in one pass each — O(1) traversals per
// Newton iteration instead of O(branches) (docs/PERFORMANCE.md).
//
// Like the post-order descriptor, both engines share the construction:
// the de-centralized engine builds the plan locally on every rank, the
// fork-join master encodes it with Encode and broadcasts the bytes.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/likelihood"
	"repro/internal/tree"
)

// GradEdge holds the sum-table operands of one edge: P the conditional
// vector below the edge (tip or post-order CLV), Q the vector above it
// (an outer vector, or in one branch's plan the CLV a descriptor rooted
// on the edge computes).
type GradEdge struct {
	P, Q likelihood.Ref
}

// GradPlan is the all-branch gradient schedule for one tree state.
type GradPlan struct {
	// Pre[c] is the pre-order step schedule with class-c branch lengths
	// (classes share structure, like Descriptor.Steps).
	Pre [][]likelihood.Step
	// Edges lists the per-edge kernel operands, root edge first, then
	// depth-first order. The edge order is what indexes the result
	// vector of AllBranchDerivatives.
	Edges []GradEdge
	// T[c][b] is edge b's length in class c.
	T [][]float64
	// Active, when non-nil, marks the (edge, class) derivative slots
	// the caller still needs: Active[c·nB+b] is edge b in class c, nB
	// the edge count. A kernel of class c skips edge b where that entry
	// is off and leaves the slot's result zero, which nobody reads. nil
	// means every slot. The search's Newton loop narrows the mask as
	// (edge, class) pairs converge, so late iterations only pay for the
	// stragglers.
	Active []bool
	// Reuse marks a plan whose edge set and underlying CLV/outer-vector
	// state are unchanged since the engines' previous all-branch
	// gradient call: the kernels re-evaluate each edge's derivatives at
	// the plan's (new) lengths from the sum table that call contracted
	// into the edge's slot instead of re-contracting P·Q, and such a plan
	// carries no pre-order steps. The search's Newton loop sets it on
	// every iteration after a plan's first.
	Reuse bool
}

// NBranches returns the number of edges the plan covers.
func (p *GradPlan) NBranches() int { return len(p.Edges) }

// SetEdge makes p the contracting plan of descriptor d's edge at d's
// lengths, reusing p's storage: the one edge (d.P, d.Q), no pre-order
// step, every slot active. Run right after d's traversal it is the first
// Newton iteration of one branch — the smoother's plans list every edge,
// this one a single edge, and nothing else tells them apart.
func (p *GradPlan) SetEdge(d *Descriptor) {
	classes := len(d.T)
	if cap(p.Pre) < classes {
		p.Pre = make([][]likelihood.Step, classes)
		p.T = make([][]float64, classes)
	}
	p.Pre, p.T = p.Pre[:classes], p.T[:classes]
	for c := range p.T {
		p.Pre[c] = p.Pre[c][:0]
		p.T[c] = append(p.T[c][:0], d.T[c])
	}
	p.Edges = append(p.Edges[:0], GradEdge{P: d.P, Q: d.Q})
	p.Active, p.Reuse = nil, false
}

// BuildGradient computes the gradient plan for t, rooted at the virtual
// root on tip 0's edge. The post-order CLVs the plan's P operands and
// step B operands reference are the ones a full traversal toward tip 0
// leaves behind (search.buildFull); the pre-order steps are emitted
// parents-before-children so Traverse can execute them in order.
//
// skip, when non-nil, is indexed by vertex ID and marks vertices whose
// outer vector is unchanged since the previous iteration (every changed
// edge lies on or below the vertex's parent edge): their pre-order
// steps are omitted and the kernel reuses the stored vector. Edges are
// always all listed regardless of skip.
//
// The second result gives one representative half-node per edge, in
// plan order: the child-side half-node whose Back faces the root.
// Re-rooting on it (Build, then the SetEdge plan of that descriptor)
// reproduces the plan's (P, Q) operand roles exactly — what the search's
// twin-engine test compares every gradient against.
func BuildGradient(t *tree.Tree, skip []bool) (*GradPlan, []*tree.Node) {
	plan := new(GradPlan)
	return plan, plan.Build(t, skip, nil)
}

// Build is BuildGradient into p, reusing its slices, with the
// representative half-nodes appended to nodes[:0]. It leaves Active nil
// and Reuse false.
func (p *GradPlan) Build(t *tree.Tree, skip []bool, nodes []*tree.Node) []*tree.Node {
	classes := t.BLClasses
	tip0 := t.Tip(0)
	rb := tip0.Back
	resize(&p.Pre, classes)
	resize(&p.T, classes)
	for c := range p.Pre {
		p.Pre[c] = p.Pre[c][:0]
	}
	p.Active, p.Reuse = nil, false

	// Root edge: P is tip 0 itself, Q the post-order CLV at rb — the
	// vector a full traversal rooted on this edge computes. No pre-order
	// step is needed.
	p.Edges = append(p.Edges[:0], GradEdge{P: Ref(t, tip0), Q: Ref(t, rb)})
	g := gradBuilder{t: t, skip: skip, plan: p, nodes: append(nodes[:0], tip0)}
	g.walk(rb.Next, rb)
	g.walk(rb.Next.Next, rb)

	for c := range p.T {
		ts := resize(&p.T[c], len(g.nodes))
		for b, nd := range g.nodes {
			ts[b] = nd.Length(c)
		}
	}
	return g.nodes
}

// gradBuilder is the state of one gradient plan's depth-first walk.
type gradBuilder struct {
	t     *tree.Tree
	skip  []bool
	plan  *GradPlan
	nodes []*tree.Node
}

// ref resolves one parent-ring half-node to a step operand: the
// rootward member (h == up) contributes the parent's own outer vector
// (or the root tip), a sibling member contributes the post-order CLV (or
// tip) at its far end.
func (g *gradBuilder) ref(h, up *tree.Node) likelihood.Ref {
	if h == up && !h.Back.IsTip() {
		return likelihood.OuterAt(h.VertexID)
	}
	return Ref(g.t, h.Back)
}

// walk adds the edge below u (u.Back is the child), its pre-order step
// unless skip marks the child, and then the child's subtree.
func (g *gradBuilder) walk(u, up *tree.Node) {
	child := u.Back
	if g.skip == nil || !g.skip[child.VertexID] {
		// The A/B operand order matches Orient's (u.Next then
		// u.Next.Next): re-rooting the post-order traversal on the child
		// edge would compute the parent's CLV from exactly these operands
		// in exactly this order, which is the operation-for-operation half
		// of the bit-identity argument.
		s := likelihood.Step{Dst: likelihood.OuterAt(child.VertexID), A: g.ref(u.Next, up), B: g.ref(u.Next.Next, up)}
		for c, pre := range g.plan.Pre {
			s.TA, s.TB = u.Next.Length(c), u.Next.Next.Length(c)
			g.plan.Pre[c] = append(pre, s)
		}
	}
	g.plan.Edges = append(g.plan.Edges, GradEdge{P: Ref(g.t, child), Q: likelihood.OuterAt(child.VertexID)})
	g.nodes = append(g.nodes, child)
	if child.IsTip() {
		return
	}
	g.walk(child.Next, child)
	g.walk(child.Next.Next, child)
}

// WireSize returns the number of bytes Encode produces.
func (p *GradPlan) WireSize() int {
	nSteps := 0
	if len(p.Pre) > 0 {
		nSteps = len(p.Pre[0])
	}
	return gradWireSize(len(p.T), nSteps, len(p.Edges), p.Active != nil)
}

// gradWireSize is the encoded size of a plan with the given counts.
// Header: classes, steps, edges, flags byte (bit 0: mask present, bit 1:
// reuse). Structure: per step dst + two refs (1 kind byte + 8-byte index
// each); per edge two refs; when the mask is present, one bit per
// (edge, class) slot, Descriptor.Active's bit order. Payload per class:
// per-step TA/TB, per-edge T.
func gradWireSize(classes, nSteps, nEdges int, masked bool) int {
	active := 0
	if masked {
		active = (classes*nEdges + 7) / 8
	}
	return 13 + nSteps*(4+2*9) + nEdges*2*9 + active + classes*(nSteps*16+nEdges*8)
}

// Encode serializes the plan (little-endian, structure shared across
// classes, lengths per class — the Descriptor wire idiom).
func (p *GradPlan) Encode() []byte { return p.Append(make([]byte, 0, p.WireSize())) }

// Append appends the plan's encoding (Encode) to buf.
func (p *GradPlan) Append(buf []byte) []byte {
	put32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	put64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	nSteps := 0
	if len(p.Pre) > 0 {
		nSteps = len(p.Pre[0])
	}
	put32(uint32(len(p.Pre)))
	put32(uint32(nSteps))
	put32(uint32(len(p.Edges)))
	var flags byte
	if p.Active != nil {
		flags |= 1
	}
	if p.Reuse {
		flags |= 2
	}
	buf = append(buf, flags)
	if nSteps > 0 {
		for _, s := range p.Pre[0] {
			put32(uint32(s.Dst.Idx))
			buf = putRef(buf, s.A)
			buf = putRef(buf, s.B)
		}
	}
	for _, e := range p.Edges {
		buf = putRef(buf, e.P)
		buf = putRef(buf, e.Q)
	}
	if p.Active != nil {
		buf = appendMask(buf, p.Active)
	}
	for c := range p.Pre {
		for _, s := range p.Pre[c] {
			put64(math.Float64bits(s.TA))
			put64(math.Float64bits(s.TB))
		}
		for _, t := range p.T[c] {
			put64(math.Float64bits(t))
		}
	}
	return buf
}

// Validate checks that the plan fits a tree of nTaxa taxa with the given
// number of branch-length classes: every tip below nTaxa, every CLV slot
// below nTaxa−2, every outer slot below 2·nTaxa−2 (outer vectors are
// indexed by vertex), every pre-order step writing an outer slot, one
// schedule and one length vector per class, all
// of the structure's size, and a mask, when there is one, of one entry
// per (edge, class) slot. DecodeGradPlan cannot know the tree; a
// receiver calls Validate before handing a decoded plan to its kernels,
// which index (and grow) their buffers from these numbers.
func (p *GradPlan) Validate(nTaxa, classes int) error {
	if len(p.Pre) != classes || len(p.T) != classes {
		return fmt.Errorf("traversal: gradient plan has %d schedules and %d length vectors for %d classes", len(p.Pre), len(p.T), classes)
	}
	for c := range p.Pre {
		if len(p.Pre[c]) != len(p.Pre[0]) || len(p.T[c]) != len(p.Edges) {
			return fmt.Errorf("traversal: gradient plan class %d has %d steps and %d lengths, the structure %d steps and %d edges",
				c, len(p.Pre[c]), len(p.T[c]), len(p.Pre[0]), len(p.Edges))
		}
	}
	if p.Active != nil && len(p.Active) != classes*len(p.Edges) {
		return fmt.Errorf("traversal: gradient plan masks %d slots of %d classes × %d edges", len(p.Active), classes, len(p.Edges))
	}
	nOuter := 2*nTaxa - 2
	bad := false
	if classes > 0 {
		for _, s := range p.Pre[0] {
			bad = bad || dstOutside(s.Dst, likelihood.Outer, nTaxa, nOuter) || refOutside(s.A, nTaxa, nOuter) || refOutside(s.B, nTaxa, nOuter)
		}
	}
	for _, e := range p.Edges {
		bad = bad || refOutside(e.P, nTaxa, nOuter) || refOutside(e.Q, nTaxa, nOuter)
	}
	if bad {
		return fmt.Errorf("traversal: gradient plan addresses a slot outside a %d-taxon tree", nTaxa)
	}
	return nil
}

// DecodeGradPlan reverses Encode into a new plan.
func DecodeGradPlan(buf []byte) (*GradPlan, error) {
	p := new(GradPlan)
	if err := p.Decode(buf); err != nil {
		return nil, err
	}
	return p, nil
}

// Decode reverses Encode into p, reusing its slices — Active's storage
// too, for a frame with a mask; a frame without one leaves Active nil.
// The header is checked against the buffer length before anything is
// sized from it, so arbitrary bytes cost at most an error. Follow it
// with Validate before executing the plan.
func (p *GradPlan) Decode(buf []byte) error {
	if len(buf) < 13 {
		return fmt.Errorf("traversal: truncated gradient plan")
	}
	nClasses := int(binary.LittleEndian.Uint32(buf[0:]))
	nSteps := int(binary.LittleEndian.Uint32(buf[4:]))
	nEdges := int(binary.LittleEndian.Uint32(buf[8:]))
	flags := buf[12]
	if nClasses > 1<<20 || nSteps > 1<<24 || nEdges > 1<<24 {
		return fmt.Errorf("traversal: implausible gradient-plan header (%d classes, %d steps, %d edges)", nClasses, nSteps, nEdges)
	}
	// Counts this small cannot overflow the size on a 64-bit int.
	if want := gradWireSize(nClasses, nSteps, nEdges, flags&1 != 0); len(buf) != want {
		return fmt.Errorf("traversal: gradient plan is %d bytes, its header says %d", len(buf), want)
	}
	r := planReader{buf: buf, pos: 13, what: "gradient plan"}
	p.Reuse = flags&2 != 0
	resize(&p.Pre, nClasses)
	resize(&p.T, nClasses)
	for c := range p.Pre {
		resize(&p.Pre[c], nSteps)
		resize(&p.T[c], nEdges)
	}
	for i := range nSteps {
		s := likelihood.Step{Dst: r.slot(likelihood.Outer), A: r.ref(), B: r.ref()}
		if nClasses > 0 {
			p.Pre[0][i] = s
		}
	}
	for i := range resize(&p.Edges, nEdges) {
		p.Edges[i].P = r.ref()
		p.Edges[i].Q = r.ref()
	}
	if r.err != nil {
		return r.err
	}
	if flags&1 != 0 {
		r.readMask(&p.Active, nClasses*nEdges)
		if r.err != nil {
			return r.err
		}
	} else {
		p.Active = nil
	}
	for c, cs := range p.Pre {
		if c > 0 {
			copy(cs, p.Pre[0])
		}
		for i := range cs {
			cs[i].TA = r.f64()
			cs[i].TB = r.f64()
		}
		for i := range p.T[c] {
			p.T[c][i] = r.f64()
		}
	}
	return nil
}
