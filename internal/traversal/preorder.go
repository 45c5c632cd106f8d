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
// (an outer vector, or for a per-branch Newton the CLV a descriptor
// rooted on the edge computes).
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
	// Active, when non-nil, marks the edges whose derivatives the
	// caller still needs (indexed like Edges); the kernels skip
	// inactive edges, leaving their result slots zero. nil means every
	// edge. The simultaneous Newton smoother narrows the mask as
	// branches converge, so late inner iterations only pay for the
	// stragglers.
	Active []bool
	// Reuse marks a plan whose edge set and underlying CLV/outer-vector
	// state are unchanged since the engines' previous all-branch
	// gradient call: the kernels re-evaluate each edge's derivatives at
	// the plan's (new) lengths from the sum table that call contracted
	// into the edge's slot instead of re-contracting P·Q, and such a plan
	// carries no pre-order steps. The simultaneous Newton smoother sets it
	// on every inner iteration after a sweep's first.
	Reuse bool
}

// NBranches returns the number of edges the plan covers.
func (p *GradPlan) NBranches() int { return len(p.Edges) }

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
// Re-rooting on it (traversal.Build + PrepareBranch) reproduces the
// plan's (P, Q) operand roles exactly — what the search's twin-engine
// test compares every gradient against.
func BuildGradient(t *tree.Tree, skip []bool) (*GradPlan, []*tree.Node) {
	nB := t.NBranches()
	classes := t.BLClasses
	tip0 := t.Tip(0)
	rb := tip0.Back

	plan := &GradPlan{
		Pre:   make([][]likelihood.Step, classes),
		Edges: make([]GradEdge, 0, nB),
		T:     make([][]float64, classes),
	}
	nodes := make([]*tree.Node, 0, nB)
	// stepNodes[i] is the parent-ring half-node of step i (the one whose
	// Back is the step's destination), for per-class length re-reads.
	stepNodes := make([]*tree.Node, 0, nB-1)
	var steps []likelihood.Step

	// Root edge: P is tip 0 itself, Q the post-order CLV at rb — the
	// vector a full traversal rooted on this edge computes. No pre-order
	// step is needed.
	plan.Edges = append(plan.Edges, GradEdge{P: Ref(t, tip0), Q: Ref(t, rb)})
	nodes = append(nodes, tip0)

	// gradRef resolves one parent-ring half-node to a step operand: the
	// rootward member (h == up) contributes the parent's own outer
	// vector (or the root tip), a sibling member contributes the
	// post-order CLV (or tip) at its far end.
	gradRef := func(h, up *tree.Node) likelihood.Ref {
		if h == up && !h.Back.IsTip() {
			return likelihood.OuterAt(h.VertexID)
		}
		return Ref(t, h.Back)
	}

	var walk func(u, up *tree.Node)
	walk = func(u, up *tree.Node) {
		child := u.Back
		if skip == nil || !skip[child.VertexID] {
			// The A/B operand order matches Orient's (u.Next then
			// u.Next.Next): re-rooting the post-order traversal on the
			// child edge would compute the parent's CLV from exactly
			// these operands in exactly this order, which is the
			// operation-for-operation half of the bit-identity argument.
			steps = append(steps, likelihood.Step{
				Dst: likelihood.OuterAt(child.VertexID),
				A:   gradRef(u.Next, up),
				B:   gradRef(u.Next.Next, up),
				TA:  u.Next.Length(0),
				TB:  u.Next.Next.Length(0),
			})
			stepNodes = append(stepNodes, u)
		}
		plan.Edges = append(plan.Edges, GradEdge{P: Ref(t, child), Q: likelihood.OuterAt(child.VertexID)})
		nodes = append(nodes, child)
		if child.IsTip() {
			return
		}
		walk(child.Next, child)
		walk(child.Next.Next, child)
	}
	walk(rb.Next, rb)
	walk(rb.Next.Next, rb)

	plan.Pre[0] = steps
	plan.T[0] = make([]float64, len(nodes))
	for b, nd := range nodes {
		plan.T[0][b] = nd.Length(0)
	}
	for c := 1; c < classes; c++ {
		cs := make([]likelihood.Step, len(steps))
		copy(cs, steps)
		for i := range cs {
			cs[i].TA = stepNodes[i].Next.Length(c)
			cs[i].TB = stepNodes[i].Next.Next.Length(c)
		}
		plan.Pre[c] = cs
		ts := make([]float64, len(nodes))
		for b, nd := range nodes {
			ts[b] = nd.Length(c)
		}
		plan.T[c] = ts
	}
	return plan, nodes
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
// each); per edge two refs plus, when the mask is present, one active
// byte. Payload per class: per-step TA/TB, per-edge T.
func gradWireSize(classes, nSteps, nEdges int, masked bool) int {
	active := 0
	if masked {
		active = nEdges
	}
	return 13 + nSteps*(4+2*9) + nEdges*2*9 + active + classes*(nSteps*16+nEdges*8)
}

// Encode serializes the plan (little-endian, structure shared across
// classes, lengths per class — the Descriptor wire idiom).
func (p *GradPlan) Encode() []byte {
	buf := make([]byte, 0, p.WireSize())
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
	for _, a := range p.Active {
		if a {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
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
// indexed by vertex), one schedule and one length vector per class, all
// of the structure's size. DecodeGradPlan cannot know the tree; a
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
	if p.Active != nil && len(p.Active) != len(p.Edges) {
		return fmt.Errorf("traversal: gradient plan masks %d of %d edges", len(p.Active), len(p.Edges))
	}
	nOuter := 2*nTaxa - 2
	bad := false
	if classes > 0 {
		for _, s := range p.Pre[0] {
			bad = bad || refOutside(s.Dst, nTaxa, nOuter) || refOutside(s.A, nTaxa, nOuter) || refOutside(s.B, nTaxa, nOuter)
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

// DecodeGradPlan reverses Encode. The header is checked against the
// buffer length before anything is sized from it, so arbitrary bytes
// cost at most an error. Follow it with Validate before executing the
// plan.
func DecodeGradPlan(buf []byte) (*GradPlan, error) {
	if len(buf) < 13 {
		return nil, fmt.Errorf("traversal: truncated gradient plan")
	}
	nClasses := int(binary.LittleEndian.Uint32(buf[0:]))
	nSteps := int(binary.LittleEndian.Uint32(buf[4:]))
	nEdges := int(binary.LittleEndian.Uint32(buf[8:]))
	flags := buf[12]
	if nClasses > 1<<20 || nSteps > 1<<24 || nEdges > 1<<24 {
		return nil, fmt.Errorf("traversal: implausible gradient-plan header (%d classes, %d steps, %d edges)", nClasses, nSteps, nEdges)
	}
	// Counts this small cannot overflow the size on a 64-bit int.
	if want := gradWireSize(nClasses, nSteps, nEdges, flags&1 != 0); len(buf) != want {
		return nil, fmt.Errorf("traversal: gradient plan is %d bytes, its header says %d", len(buf), want)
	}
	r := planReader{buf: buf, pos: 13, what: "gradient plan"}
	p := &GradPlan{
		Pre:   make([][]likelihood.Step, nClasses),
		Edges: make([]GradEdge, nEdges),
		T:     make([][]float64, nClasses),
		Reuse: flags&2 != 0,
	}
	structure := make([]likelihood.Step, nSteps)
	for i := range structure {
		structure[i] = likelihood.Step{Dst: r.slot(likelihood.Outer), A: r.ref(), B: r.ref()}
	}
	for i := range p.Edges {
		p.Edges[i].P = r.ref()
		p.Edges[i].Q = r.ref()
	}
	if r.err != nil {
		return nil, r.err
	}
	if flags&1 != 0 {
		p.Active = make([]bool, nEdges)
		for i := range p.Active {
			p.Active[i] = buf[r.pos+i] != 0
		}
		r.pos += nEdges
	}
	for c := range p.Pre {
		cs := make([]likelihood.Step, nSteps)
		copy(cs, structure)
		for i := range cs {
			cs[i].TA = r.f64()
			cs[i].TB = r.f64()
		}
		p.Pre[c] = cs
		ts := make([]float64, nEdges)
		for i := range ts {
			ts[i] = r.f64()
		}
		p.T[c] = ts
	}
	return p, nil
}
