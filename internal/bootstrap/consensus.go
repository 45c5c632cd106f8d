package bootstrap

import (
	"fmt"
	"sort"

	"repro/internal/tree"
)

// Consensus builds the majority-rule (extended) consensus of the first
// n replicates: their splits are ranked by frequency (ties by key), and
// greedily added when compatible with everything accepted so far —
// splits above 50% are always mutually compatible, so the plain
// majority-rule consensus is a prefix of the greedy one. Branch lengths
// carry no meaning and are set to tree.DefaultBranchLength; the returned
// supports are the per-accepted-split frequencies aligned with the
// consensus tree's Bipartitions order.
func (c *SplitCounter) Consensus(n int, minFraction float64) (*tree.Tree, []float64, error) {
	counts, err := c.counts(n)
	if err != nil {
		return nil, nil, err
	}
	if minFraction <= 0 {
		minFraction = 0.5
	}
	var candidates []int
	for id, k := range counts {
		if float64(k) >= minFraction*float64(n) {
			candidates = append(candidates, id)
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		a, b := candidates[i], candidates[j]
		if counts[a] != counts[b] {
			return counts[a] > counts[b]
		}
		return c.splits[a].Key() < c.splits[b].Key() // deterministic ties
	})

	// Greedy compatibility filter.
	var accepted []int
	for _, id := range candidates {
		ok := true
		for _, a := range accepted {
			if !compatible(c.splits[id].Words(), c.splits[a].Words()) {
				ok = false
				break
			}
		}
		if ok {
			accepted = append(accepted, id)
		}
	}

	// Build the consensus tree by refining a star tree: cluster taxa by
	// accepted splits, largest splits first (so nesting works).
	sort.Slice(accepted, func(i, j int) bool {
		a, b := c.splits[accepted[i]], c.splits[accepted[j]]
		if a.Size() != b.Size() {
			return a.Size() > b.Size()
		}
		return a.Key() < b.Key()
	})
	words := make([][]uint64, len(accepted))
	isAccepted := make([]bool, len(c.splits))
	for i, id := range accepted {
		words[i] = c.splits[id].Words()
		isAccepted[id] = true
	}
	cons := buildFromSplits(c.taxa, words)
	if err := cons.Check(); err != nil {
		return nil, nil, fmt.Errorf("bootstrap: consensus construction: %w", err)
	}

	// Align supports with the consensus tree's bipartition order; the
	// arbitrary resolutions of multifurcations carry 0.
	bips := cons.Bipartitions()
	supports := make([]float64, len(bips))
	for i, bp := range bips {
		if id, ok := c.ids[bp.Key()]; ok && isAccepted[id] {
			supports[i] = float64(counts[id]) / float64(n)
		}
	}
	return cons, supports, nil
}

// compatible reports whether two splits (both normalized to exclude taxon
// 0) can coexist in one tree: A⊆B, B⊆A, or A∩B=∅.
func compatible(a, b []uint64) bool {
	subAB, subBA, disjoint := true, true, true
	for i := range a {
		if a[i]&^b[i] != 0 {
			subAB = false
		}
		if b[i]&^a[i] != 0 {
			subBA = false
		}
		if a[i]&b[i] != 0 {
			disjoint = false
		}
	}
	return subAB || subBA || disjoint
}

// buildFromSplits constructs a (possibly multifurcation-free) tree
// containing exactly the accepted splits. It works on a recursive
// clustering: at each level, maximal splits partition the taxa; each
// cluster becomes a child subtree. To stay within this package's strictly
// binary tree type, multifurcations are resolved arbitrarily as
// caterpillars of zero-support splits — callers must treat splits absent
// from `accepted` as unsupported (support 0 in the returned alignment).
func buildFromSplits(taxa []string, accepted [][]uint64) *tree.Tree {
	n := len(taxa)
	t := tree.New(taxa, 1)

	// cluster is a set of taxa plus the splits scoped inside it.
	type item struct {
		members []int      // taxon ids
		splits  [][]uint64 // splits whose 1-side is a strict subset of members
	}

	nextInner := 0
	// attach builds the subtree for an item and returns the half-node to
	// connect to the parent.
	var attach func(it item) *tree.Node
	attach = func(it item) *tree.Node {
		if len(it.members) == 1 {
			return t.Tip(it.members[0])
		}
		// Find the maximal splits inside this cluster: they define the
		// immediate children groups; ungrouped taxa become singletons.
		used := make(map[int]bool)
		var groups []item
		for si, s := range it.splits {
			inside := membersOf(s, it.members)
			if len(inside) == 0 || used[inside[0]] {
				continue
			}
			maximal := true
			for sj, o := range it.splits {
				if sj != si && strictSubset(s, o) {
					maximal = false
					break
				}
			}
			if !maximal {
				continue
			}
			// Collect the child splits scoped inside s.
			var childSplits [][]uint64
			for sj, o := range it.splits {
				if sj != si && strictSubset(o, s) {
					childSplits = append(childSplits, o)
				}
			}
			groups = append(groups, item{members: inside, splits: childSplits})
			for _, m := range inside {
				used[m] = true
			}
		}
		for _, m := range it.members {
			if !used[m] {
				groups = append(groups, item{members: []int{m}})
			}
		}
		// Chain the groups into a binary caterpillar.
		children := make([]*tree.Node, len(groups))
		for i, g := range groups {
			children[i] = attach(g)
		}
		// Combine children pairwise: a left-leaning chain of inner
		// vertices; the final vertex's free slot faces the parent.
		cur := children[0]
		for i := 1; i < len(children); i++ {
			v := t.InnerRing(nextInner)
			nextInner++
			t.Connect(v.Next, cur, tree.DefaultBranchLength)
			t.Connect(v.Next.Next, children[i], tree.DefaultBranchLength)
			cur = v
		}
		return cur
	}

	// Top level: taxon 0 on one side, everything else clustered.
	rest := make([]int, 0, n-1)
	for i := 1; i < n; i++ {
		rest = append(rest, i)
	}
	top := item{members: rest, splits: accepted}
	sub := attach(top)
	// sub's vertex chain root joins taxon 0 — but an unrooted binary tree
	// needs the top join to be an inner vertex with 3 neighbors. `attach`
	// returns a half-node whose remaining ring slots are already wired
	// except its own edge; connect it to tip 0.
	t.Connect(sub, t.Tip(0), tree.DefaultBranchLength)

	return t
}

// membersOf lists the taxa of `members` whose bit is set in words.
func membersOf(words []uint64, members []int) []int {
	var out []int
	for _, m := range members {
		if words[m/64]&(1<<(m%64)) != 0 {
			out = append(out, m)
		}
	}
	return out
}

// strictSubset reports a ⊂ b.
func strictSubset(a, b []uint64) bool {
	equal := true
	for i := range a {
		if a[i]&^b[i] != 0 {
			return false
		}
		if a[i] != b[i] {
			equal = false
		}
	}
	return !equal
}
