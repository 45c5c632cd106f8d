package tree

import "fmt"

// PrunedSubtree is the record returned by Prune, carrying everything
// needed to undo the move or to regraft elsewhere.
type PrunedSubtree struct {
	// Root is the pruning point: the inner half-node whose Back edge
	// leads into the pruned subtree.
	Root *Node
	// origLeft and origRight are the half-nodes (in the remaining tree)
	// that Root's two sibling ring members were attached to; the merged
	// edge now runs between them.
	origLeft, origRight *Node
	// leftBranch and rightBranch are the original branch records, kept so
	// Restore can reinstate the exact original lengths.
	leftBranch, rightBranch *Branch
	// mergedBranch is the branch record of the (origLeft, origRight) edge
	// created by the prune. Restore unwires it from the tree and sets
	// mergedFree, so the next PruneInto may write it again.
	mergedBranch *Branch
	mergedFree   bool
	// insertBranch is the original branch record of the edge split by the
	// most recent Regraft, so RemoveRegraft can reinstate it exactly.
	insertBranch *Branch
	// halves are the two branch records of the edges a Regraft makes.
	// RemoveRegraft unwires them and sets halvesFree, so the next Regraft
	// — of this prune point or of a later PruneInto — may write them
	// again; a kept move leaves them to the tree.
	halves     [2]*Branch
	halvesFree bool
}

// Prune removes the subtree hanging at p's Back edge. p must be an inner
// half-node whose two ring neighbors connect to the remaining tree; after
// the call those two neighbor subtrees are joined by a single merged edge
// (lengths = sum of the two originals, clamped to MaxBranchLength), and
// p's vertex dangles from the pruned subtree.
//
// The move mirrors removeNodeBIG in the RAxML family and is the first half
// of an SPR (subtree pruning and regrafting) rearrangement.
func (t *Tree) Prune(p *Node) (*PrunedSubtree, error) {
	ps := &PrunedSubtree{}
	if err := t.PruneInto(ps, p); err != nil {
		return nil, err
	}
	return ps, nil
}

// PruneInto is Prune recording into a caller-owned ps, so a search that
// prunes at every inner half-node allocates nothing for the prune points
// it restores: the merged edge's branch record is reused from ps's
// previous prune if Restore took it out of the tree. After a move that
// was kept instead the tree owns that record, and a new one is made.
func (t *Tree) PruneInto(ps *PrunedSubtree, p *Node) error {
	if p.IsTip() {
		return fmt.Errorf("tree: cannot prune at a tip half-node")
	}
	q := p.Next.Back
	r := p.Next.Next.Back
	if q == nil || r == nil {
		return fmt.Errorf("tree: prune point already detached")
	}
	merged := ps.mergedBranch
	if !ps.mergedFree || len(merged.Lengths) != t.BLClasses {
		merged = &Branch{Lengths: make([]float64, t.BLClasses)}
	}
	*ps = PrunedSubtree{
		Root:         p,
		origLeft:     q,
		origRight:    r,
		leftBranch:   p.Next.Branch,
		rightBranch:  p.Next.Next.Branch,
		mergedBranch: merged,
		halves:       ps.halves,
		halvesFree:   ps.halvesFree,
	}
	for c := 0; c < t.BLClasses; c++ {
		v := ps.leftBranch.Lengths[c] + ps.rightBranch.Lengths[c]
		if v > MaxBranchLength {
			v = MaxBranchLength
		}
		merged.Lengths[c] = v
	}
	Disconnect(p.Next)
	Disconnect(p.Next.Next)
	t.ConnectBranch(q, r, merged)
	return nil
}

// MergedEdge returns the two ends of the edge the prune created: the
// half-nodes of the remaining tree the pruning point's ring neighbors
// were attached to.
func (ps *PrunedSubtree) MergedEdge() (q, r *Node) { return ps.origLeft, ps.origRight }

// Regraft inserts the pruned subtree into the edge at e (between e and
// e.Back), splitting that edge's lengths in half on both sides. e must not
// be inside the pruned subtree.
func (t *Tree) Regraft(ps *PrunedSubtree, e *Node) error {
	p := ps.Root
	if p.Next.Back != nil || p.Next.Next.Back != nil {
		return fmt.Errorf("tree: subtree is not pruned")
	}
	f := e.Back
	if f == nil {
		return fmt.Errorf("tree: regraft edge is detached")
	}
	old := Disconnect(e)
	ps.insertBranch = old
	if !ps.halvesFree || len(ps.halves[0].Lengths) != t.BLClasses {
		ps.halves = [2]*Branch{{Lengths: make([]float64, t.BLClasses)}, {Lengths: make([]float64, t.BLClasses)}}
	}
	ps.halvesFree = false
	left, right := ps.halves[0], ps.halves[1]
	for c := range old.Lengths {
		h := old.Lengths[c] / 2
		if h < MinBranchLength {
			h = MinBranchLength
		}
		left.Lengths[c], right.Lengths[c] = h, h
	}
	t.ConnectBranch(e, p.Next, left)
	t.ConnectBranch(f, p.Next.Next, right)
	return nil
}

// Restore undoes a Prune, reattaching the subtree exactly where it was
// with its original branch records. The merged edge created by Prune (and
// any insertion performed since) must first be cleared by the caller via
// RemoveRegraft, unless the subtree is still detached.
func (t *Tree) Restore(ps *PrunedSubtree) error {
	p := ps.Root
	if p.Next.Back != nil || p.Next.Next.Back != nil {
		return fmt.Errorf("tree: subtree still attached; call RemoveRegraft first")
	}
	// The merged edge between origLeft and origRight must still exist.
	if ps.origLeft.Back != ps.origRight {
		return fmt.Errorf("tree: original neighbors no longer adjacent")
	}
	Disconnect(ps.origLeft)
	t.ConnectBranch(p.Next, ps.origLeft, ps.leftBranch)
	t.ConnectBranch(p.Next.Next, ps.origRight, ps.rightBranch)
	ps.mergedFree = true
	return nil
}

// RemoveRegraft undoes the most recent Regraft: the subtree is detached
// again and the edge that Regraft split is re-wired with its original
// branch record, returning the tree to the post-Prune state.
func (t *Tree) RemoveRegraft(ps *PrunedSubtree) error {
	p := ps.Root
	q := p.Next.Back
	r := p.Next.Next.Back
	if q == nil || r == nil {
		return fmt.Errorf("tree: subtree not attached")
	}
	if ps.insertBranch == nil {
		return fmt.Errorf("tree: no regraft to remove")
	}
	Disconnect(p.Next)
	Disconnect(p.Next.Next)
	t.ConnectBranch(q, r, ps.insertBranch)
	ps.insertBranch = nil
	ps.halvesFree = true
	return nil
}

// CandidateEdges enumerates the insertion edges of a lazy SPR: one
// half-node per edge of the *remaining* tree within the given topological
// radius of the original attachment point, excluding the merged edge itself
// (re-inserting there recreates the pre-prune topology). minRadius edges
// closer than minRadius (1-based distance from the merged edge) are also
// skipped, mirroring the RAxML search's minimum rearrangement setting.
func (ps *PrunedSubtree) CandidateEdges(minRadius, radius int) []*Node {
	return ps.AppendCandidateEdges(nil, minRadius, radius)
}

// AppendCandidateEdges appends CandidateEdges(minRadius, radius) to dst.
// The order is pre-order from the merged edge, left side first: a
// candidate always follows the candidate between it and the merged edge.
func (ps *PrunedSubtree) AppendCandidateEdges(dst []*Node, minRadius, radius int) []*Node {
	for _, side := range [2]*Node{ps.origLeft, ps.origRight} {
		if !side.IsTip() {
			dst = appendEdgesBelow(dst, side.Next, 1, minRadius, radius)
			dst = appendEdgesBelow(dst, side.Next.Next, 1, minRadius, radius)
		}
	}
	return dst
}

// appendEdgesBelow collects m's edge and the edges beyond it, depth-first.
func appendEdgesBelow(dst []*Node, m *Node, depth, minRadius, radius int) []*Node {
	if depth > radius {
		return dst
	}
	if depth >= minRadius {
		dst = append(dst, m)
	}
	if b := m.Back; !b.IsTip() {
		dst = appendEdgesBelow(dst, b.Next, depth+1, minRadius, radius)
		dst = appendEdgesBelow(dst, b.Next.Next, depth+1, minRadius, radius)
	}
	return dst
}

// SubtreeTaxa returns the taxon IDs in the subtree seen from n through its
// Back edge (i.e. on the far side of n's edge), in ascending order of
// discovery.
func SubtreeTaxa(n *Node) []int {
	var out []int
	var walk func(m *Node)
	walk = func(m *Node) {
		if m.IsTip() {
			out = append(out, m.TaxonID)
			return
		}
		walk(m.Next.Back)
		walk(m.Next.Next.Back)
	}
	walk(n.Back)
	return out
}
