// Package parsimony implements maximum-parsimony scoring (the Fitch
// algorithm on 4-bit state sets) and randomized stepwise-addition tree
// construction with SPR refinement — a reproduction of the Parsimonator
// tool that generates the starting trees for production ExaML runs (the
// paper's runs start from parsimony trees, not random ones). Like
// Parsimonator, the builder keeps its sets as bit planes, 64 patterns a
// word, and counts mutations by popcount (Builder).
//
// Everything is deterministic given the seed, so every rank of the
// de-centralized scheme can construct the identical starting tree locally
// without communication.
package parsimony

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/msa"
	"repro/internal/tree"
)

// Data is the parsimony view of a dataset: per taxon, the concatenated
// pattern states over all partitions, plus pattern weights.
type Data struct {
	// Tips[taxon][pattern] is the 4-bit state set.
	Tips [][]msa.State
	// Weights[pattern] is the column multiplicity.
	Weights []int32
	// Names are the taxon labels (dataset order).
	Names []string
}

// NewData flattens a compressed dataset for parsimony use.
func NewData(d *msa.Dataset) *Data {
	n := d.NTaxa()
	out := &Data{Names: d.Names, Tips: make([][]msa.State, n)}
	for _, p := range d.Parts {
		for i := 0; i < n; i++ {
			out.Tips[i] = append(out.Tips[i], p.Tips[i]...)
		}
		for _, w := range p.Weights {
			out.Weights = append(out.Weights, int32(w))
		}
	}
	return out
}

// NPatterns returns the number of flattened patterns.
func (d *Data) NPatterns() int { return len(d.Weights) }

// Score computes the weighted Fitch parsimony score of the tree: the
// minimum number of state changes over all sites, with a virtual root on
// the edge next to taxon 0. The score is root-invariant.
func Score(t *tree.Tree, d *Data) int64 {
	np := d.NPatterns()
	// Per inner vertex, the downward Fitch set per pattern.
	sets := make([][]msa.State, t.NInner())
	var mutations int64

	var down func(n *tree.Node) []msa.State
	down = func(n *tree.Node) []msa.State {
		if n.IsTip() {
			return d.Tips[n.TaxonID]
		}
		slot := n.VertexID - t.NTaxa()
		a := down(n.Next.Back)
		b := down(n.Next.Next.Back)
		out := sets[slot]
		if out == nil {
			out = make([]msa.State, np)
			sets[slot] = out
		}
		for i := 0; i < np; i++ {
			inter := a[i] & b[i]
			if inter == 0 {
				out[i] = a[i] | b[i]
				mutations += int64(d.Weights[i])
			} else {
				out[i] = inter
			}
		}
		return out
	}

	root := t.Tip(0)
	up := down(root.Back)
	tipSets := d.Tips[root.TaxonID]
	for i := 0; i < np; i++ {
		if up[i]&tipSets[i] == 0 {
			mutations += int64(d.Weights[i])
		}
	}
	return mutations
}

// Builder incrementally constructs and refines trees by parsimony.
//
// Candidate insertions are scored from directional Fitch sets. For a
// half-node h, set(h) is the first-pass Fitch set of the part of the
// tree on h's side of its edge: a tip's states, or for an inner vertex
// the combination of the two sets that look at it from its other two
// edges. The Fitch length does not depend on where the tree is rooted,
// so rooting the tree with subtree set S inserted into edge e at the
// new vertex gives
//
//	L = L(tree without S) + L(S) + Σ w·[fitch(set(e), set(e.Back)) ∩ S = ∅]
//
// and only the last term depends on e: O(patterns) per candidate once
// the sets are in place, where a Fitch pass over the regrafted tree is
// O(taxa × patterns).
//
// The sets are bit planes, the layout of Parsimonator and RAxML's fast
// parsimony: a set is four state planes of b.words 64-pattern words,
// bit i of plane s set when pattern i's set holds state s, so one word
// operation combines 64 patterns. The padding patterns past the last
// word's end hold every state (code 15) in every tip, so each
// intersection there is non-empty and they never cost; the weights are
// bit planes too (wbits), and a candidate's cost is the popcount of its
// missed patterns in each weight plane, shifted by the plane's bit. The
// costs are the integers the byte-per-pattern sets gave, so every
// first-minimum choice, and with it the tree, is the same; Score keeps
// one byte per pattern, an independent check of the planes.
type Builder struct {
	data *Data
	rng  *rand.Rand
	// blClasses configures the branch-length classes of produced trees.
	blClasses int
	// words is the number of 64-pattern words of a state plane.
	words int
	// tips[taxon] is the taxon's set: plane s at [s·words, (s+1)·words).
	tips [][]uint64
	// wbits[i·nw+b] is bit plane b of the weights of word i's patterns,
	// nw planes per word: as many as the largest weight has bits.
	wbits []uint64
	nw    int
	// sets[h.ID] backs set(h) for inner half-nodes, allocated on first
	// use and overwritten by every pass.
	sets [][]uint64
}

// NewBuilder prepares a builder over the dataset.
func NewBuilder(d *msa.Dataset, blClasses int, seed int64) (*Builder, error) {
	if d.NTaxa() < 3 {
		return nil, fmt.Errorf("parsimony: need at least 3 taxa")
	}
	if blClasses < 1 {
		return nil, fmt.Errorf("parsimony: blClasses = %d", blClasses)
	}
	return newBuilder(NewData(d), blClasses, seed), nil
}

// newBuilder packs the data's tips and weights into bit planes.
func newBuilder(d *Data, blClasses int, seed int64) *Builder {
	np := d.NPatterns()
	words := (np + 63) / 64
	b := &Builder{data: d, rng: rand.New(rand.NewSource(seed)), blClasses: blClasses, words: words}
	b.tips = make([][]uint64, len(d.Tips))
	for t, row := range d.Tips {
		planes := make([]uint64, ns*words)
		for i := 0; i < 64*words; i++ {
			code := msa.State(15)
			if i < np {
				code = row[i]
			}
			for s := 0; s < ns; s++ {
				planes[s*words+i/64] |= uint64(code>>s&1) << (i % 64)
			}
		}
		b.tips[t] = planes
	}
	var wmax int32
	for _, w := range d.Weights {
		wmax = max(wmax, w)
	}
	b.nw = bits.Len32(uint32(wmax))
	b.wbits = make([]uint64, words*b.nw)
	for i, w := range d.Weights {
		for bit := 0; bit < b.nw; bit++ {
			b.wbits[i/64*b.nw+bit] |= uint64(w>>bit&1) << (i % 64)
		}
	}
	return b
}

// ns is the number of states, the planes of a set.
const ns = msa.NumStates

// set returns the directional Fitch set stored for h.
func (b *Builder) set(h *tree.Node) []uint64 {
	if h.IsTip() {
		return b.tips[h.TaxonID]
	}
	return b.sets[h.ID]
}

// fitch returns the planes of word i of the Fitch combination of x and y:
// per pattern their intersection when it is non-empty, else their union.
func fitch(x, y []uint64, words, i int) (o0, o1, o2, o3 uint64) {
	x0, x1, x2, x3 := x[i], x[words+i], x[2*words+i], x[3*words+i]
	y0, y1, y2, y3 := y[i], y[words+i], y[2*words+i], y[3*words+i]
	a0, a1, a2, a3 := x0&y0, x1&y1, x2&y2, x3&y3
	none := ^(a0 | a1 | a2 | a3)
	return a0 | none&(x0|y0), a1 | none&(x1|y1), a2 | none&(x2|y2), a3 | none&(x3|y3)
}

// combine computes set(h) for an inner half-node from the sets looking
// at h's vertex across its other two edges, which must be in place.
func (b *Builder) combine(h *tree.Node) {
	if b.sets[h.ID] == nil {
		b.sets[h.ID] = make([]uint64, ns*b.words)
	}
	out, x, y := b.sets[h.ID], b.set(h.Next.Back), b.set(h.Next.Next.Back)
	words := b.words
	for i := 0; i < words; i++ {
		out[i], out[words+i], out[2*words+i], out[3*words+i] = fitch(x, y, words, i)
	}
}

// down computes set(h) bottom-up over the whole part of the tree on h's
// side of its edge.
func (b *Builder) down(h *tree.Node) {
	if h.IsTip() {
		return
	}
	b.down(h.Next.Back)
	b.down(h.Next.Next.Back)
	b.combine(h)
}

// up computes the sets that look back toward m.Back's parent: m's own
// and those of every edge beyond it. set(m.Back) and everything below
// it come from a down pass, set of m's rootward neighbor from the
// caller.
func (b *Builder) up(m *tree.Node) {
	b.combine(m)
	if c := m.Back; !c.IsTip() {
		b.up(c.Next)
		b.up(c.Next.Next)
	}
}

// insertionCost returns the e-dependent term of the length of the tree
// with subtree set s inserted into the edge at e: the weight of the
// patterns whose root set, the Fitch combination of e's two sets, misses
// s.
func (b *Builder) insertionCost(e *tree.Node, s []uint64) int64 {
	x, y := b.set(e), b.set(e.Back)
	words, nw := b.words, b.nw
	var cost int64
	for i := 0; i < words; i++ {
		r0, r1, r2, r3 := fitch(x, y, words, i)
		miss := ^(r0&s[i] | r1&s[words+i] | r2&s[2*words+i] | r3&s[3*words+i])
		wb := b.wbits[i*nw : (i+1)*nw]
		for bit, w := range wb {
			cost += int64(bits.OnesCount64(miss&w)) << bit
		}
	}
	return cost
}

// Stepwise builds a tree by randomized stepwise addition: taxa are added
// in random order, each at the edge that minimizes the Fitch score.
// Deterministic given the builder's seed.
func (b *Builder) Stepwise() *tree.Tree {
	n := len(b.data.Names)
	order := b.rng.Perm(n)

	t := tree.New(b.data.Names, b.blClasses)
	b.sets = make([][]uint64, len(t.HalfNodes))
	ring := t.InnerRing(0)
	t.Connect(ring, t.Tip(order[0]), tree.DefaultBranchLength)
	t.Connect(ring.Next, t.Tip(order[1]), tree.DefaultBranchLength)
	t.Connect(ring.Next.Next, t.Tip(order[2]), tree.DefaultBranchLength)

	// Incremental construction on a *growing* tree: the tree package
	// pre-allocates all vertices, so we track which edges are live.
	live := []*tree.Node{ring, ring.Next, ring.Next.Next}

	for k := 3; k < n; k++ {
		taxon := order[k]
		// Both directional sets of every live edge, rooted next to the
		// first taxon: one pass down to it, one back up from it.
		root := t.Tip(order[0]).Back
		b.down(root)
		b.up(root.Next)
		b.up(root.Next.Next)
		tips := b.tips[taxon]
		bestCost := int64(-1)
		bestEdge := -1
		for ei, e := range live {
			if c := b.insertionCost(e, tips); bestCost < 0 || c < bestCost {
				bestCost = c
				bestEdge = ei
			}
		}
		// Insert at the first edge of minimal score.
		v := t.InnerRing(k - 2)
		a := live[bestEdge]
		bb := a.Back
		br := tree.Disconnect(a)
		t.ConnectBranch(a, v.Next, br)
		t.Connect(v.Next.Next, bb, tree.DefaultBranchLength)
		t.Connect(v, t.Tip(taxon), tree.DefaultBranchLength)
		live = append(live, v, v.Next.Next)
	}
	return t
}

// SPRRounds hill-climbs the tree with parsimony-scored SPR moves until no
// move within the radius improves the score or maxRounds is exhausted.
// Returns the final score.
func (b *Builder) SPRRounds(t *tree.Tree, radius, maxRounds int) (int64, error) {
	if len(b.sets) != len(t.HalfNodes) {
		b.sets = make([][]uint64, len(t.HalfNodes))
	}
	cur := Score(t, b.data)
	ps := new(tree.PrunedSubtree)
	var candidates []*tree.Node
	for round := 0; round < maxRounds; round++ {
		improved := false
		for v := 0; v < t.NInner(); v++ {
			for _, p := range t.InnerRing(v).Ring() {
				if err := t.PruneInto(ps, p); err != nil {
					continue
				}
				// One pass down to the merged edge from either side and
				// into the subtree. Putting the subtree back where it was
				// costs what the merged edge costs, which gives the
				// candidate-independent part of every score.
				q, r := ps.MergedEdge()
				b.down(q)
				b.down(r)
				b.down(p.Back)
				sub := b.set(p.Back)
				base := cur - b.insertionCost(q, sub)
				candidates = ps.AppendCandidateEdges(candidates[:0], 1, radius)
				bestScore := cur
				bestIdx := -1
				for i, e := range candidates {
					// Candidates come parents first, so the set looking
					// back from e's rootward neighbor is already there.
					b.combine(e)
					if s := base + b.insertionCost(e, sub); s < bestScore {
						bestScore = s
						bestIdx = i
					}
				}
				if bestIdx >= 0 {
					if err := t.Regraft(ps, candidates[bestIdx]); err != nil {
						return 0, fmt.Errorf("parsimony: apply: %w", err)
					}
					cur = bestScore
					improved = true
				} else if err := t.Restore(ps); err != nil {
					return 0, fmt.Errorf("parsimony: restore: %w", err)
				}
			}
		}
		if !improved {
			break
		}
	}
	return cur, nil
}

// Build produces a refined parsimony starting tree: randomized stepwise
// addition followed by SPR hill climbing, exactly the Parsimonator recipe.
func Build(d *msa.Dataset, blClasses int, seed int64) (*tree.Tree, int64, error) {
	b, err := NewBuilder(d, blClasses, seed)
	if err != nil {
		return nil, 0, err
	}
	t := b.Stepwise()
	score, err := b.SPRRounds(t, 5, 3)
	if err != nil {
		return nil, 0, err
	}
	if err := t.Check(); err != nil {
		return nil, 0, fmt.Errorf("parsimony: built tree invalid: %w", err)
	}
	return t, score, nil
}
