package bootstrap

import (
	"fmt"

	"repro/internal/tree"
)

// SplitCounter is the one split table of a bootstrap analysis. It holds
// every distinct non-trivial bipartition of the added replicate trees
// once, under a dense id in first-seen order, and each replicate's list
// of ids. Supports, the consensus and the bootstop statistic all read
// it, each over a prefix of the replicates (the converged prefix of a
// bootstopped campaign), so they count splits by id in slices and no
// decision depends on a map's iteration order.
type SplitCounter struct {
	taxa    []string
	ids     map[string]int // Bipartition.Key → id; looked up, never ranged
	splits  []tree.Bipartition
	perTree [][]int
}

// NewSplitCounter returns an empty table.
func NewSplitCounter() *SplitCounter {
	return &SplitCounter{ids: map[string]int{}}
}

// Add records one replicate tree's non-trivial bipartitions and returns
// the replicate's index. Every tree must name the first tree's taxa in
// the same order, since a split is a bit set over taxon indices.
func (c *SplitCounter) Add(t *tree.Tree) (int, error) {
	if len(c.perTree) == 0 {
		c.taxa = t.Taxa
	} else if err := c.checkTaxa(t); err != nil {
		return 0, fmt.Errorf("bootstrap: replicate %d has %w", len(c.perTree), err)
	}
	bps := t.Bipartitions()
	ids := make([]int, len(bps))
	for i, bp := range bps {
		k := bp.Key()
		id, ok := c.ids[k]
		if !ok {
			id = len(c.splits)
			c.ids[k] = id
			c.splits = append(c.splits, bp)
		}
		ids[i] = id
	}
	c.perTree = append(c.perTree, ids)
	return len(c.perTree) - 1, nil
}

// checkTaxa reports how t's taxa differ from the table's.
func (c *SplitCounter) checkTaxa(t *tree.Tree) error {
	if t.NTaxa() != len(c.taxa) {
		return fmt.Errorf("%d taxa, want %d", t.NTaxa(), len(c.taxa))
	}
	for i, name := range t.Taxa {
		if name != c.taxa[i] {
			return fmt.Errorf("taxon %d %q, want %q", i, name, c.taxa[i])
		}
	}
	return nil
}

// Trees returns the number of replicates added.
func (c *SplitCounter) Trees() int { return len(c.perTree) }

// Splits returns the number of distinct splits: ids run 0..Splits()-1.
func (c *SplitCounter) Splits() int { return len(c.splits) }

// TreeSplits returns replicate i's split ids (shared slice — callers
// must not mutate it).
func (c *SplitCounter) TreeSplits(i int) []int { return c.perTree[i] }

// counts returns, by split id, how many of the first n replicates hold
// each split.
func (c *SplitCounter) counts(n int) ([]int, error) {
	if n <= 0 || n > len(c.perTree) {
		return nil, fmt.Errorf("bootstrap: %d of %d replicate trees", n, len(c.perTree))
	}
	counts := make([]int, len(c.splits))
	for _, ids := range c.perTree[:n] {
		for _, id := range ids {
			counts[id]++
		}
	}
	return counts, nil
}

// Support maps the first n replicates' split frequencies onto the
// reference tree: for every non-trivial bipartition of ref (in
// tree.Bipartitions order), the fraction of those replicates holding it.
// Replicates added beyond n do not reach the result.
func (c *SplitCounter) Support(ref *tree.Tree, n int) ([]float64, error) {
	counts, err := c.counts(n)
	if err != nil {
		return nil, err
	}
	if err := c.checkTaxa(ref); err != nil {
		return nil, fmt.Errorf("bootstrap: reference has %w", err)
	}
	refBips := ref.Bipartitions()
	out := make([]float64, len(refBips))
	for i, bp := range refBips {
		if id, ok := c.ids[bp.Key()]; ok {
			out[i] = float64(counts[id]) / float64(n)
		}
	}
	return out, nil
}
