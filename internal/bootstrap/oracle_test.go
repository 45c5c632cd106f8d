package bootstrap

import (
	"testing"

	"repro/internal/tree"
)

// tableOf adds the trees to a new split table, in order.
func tableOf(t *testing.T, trees ...*tree.Tree) *SplitCounter {
	t.Helper()
	c := NewSplitCounter()
	for _, tr := range trees {
		if _, err := c.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// Consensus is the consensus of all the trees, through a table of them:
// the shape the consensus tests were written against.
func Consensus(trees []*tree.Tree, minFraction float64) (*tree.Tree, []float64, error) {
	c := NewSplitCounter()
	for _, tr := range trees {
		if _, err := c.Add(tr); err != nil {
			return nil, nil, err
		}
	}
	return c.Consensus(len(trees), minFraction)
}

// supportOracle is the brute-force reference for SplitCounter.Support:
// for each non-trivial split of ref, the fraction of the replicates whose
// Bipartitions() contain it, compared split by split, with no table.
func supportOracle(ref *tree.Tree, reps []*tree.Tree) []float64 {
	refBips := ref.Bipartitions()
	out := make([]float64, len(refBips))
	for i, want := range refBips {
		holding := 0
		for _, r := range reps {
			for _, bp := range r.Bipartitions() {
				if bp.Key() == want.Key() {
					holding++
					break
				}
			}
		}
		out[i] = float64(holding) / float64(len(reps))
	}
	return out
}
