// Package bootstrap implements nonparametric bootstrap analysis: per
// partition, alignment sites are resampled with replacement (adjusting
// pattern weights — no data is copied), a tree is inferred per replicate,
// and branch support is the fraction of replicate trees containing each
// bipartition of a reference (best-known) tree. This is the standard
// RAxML bootstrap workflow run on top of either parallelization scheme.
package bootstrap

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/msa"
	"repro/internal/tree"
)

// Resample draws a bootstrap replicate: within every partition, NSites
// sites are drawn with replacement, which turns into a new weight vector
// over the partition's patterns. Patterns drawn zero times are dropped
// (kernels skip them entirely, as RAxML does).
func Resample(d *msa.Dataset, rng *rand.Rand) (*msa.Dataset, error) {
	out := &msa.Dataset{Names: d.Names}
	for _, p := range d.Parts {
		nSites := p.NSites()
		if nSites == 0 {
			return nil, fmt.Errorf("bootstrap: partition %q empty", p.Name)
		}
		// Cumulative weights → sample pattern index per drawn site.
		cum := make([]int, p.NPatterns())
		acc := 0
		for i, w := range p.Weights {
			acc += w
			cum[i] = acc
		}
		newW := make([]int, p.NPatterns())
		for s := 0; s < nSites; s++ {
			x := rng.Intn(nSites)
			// Binary search for the pattern owning site x.
			lo, hi := 0, len(cum)-1
			for lo < hi {
				mid := (lo + hi) / 2
				if cum[mid] <= x {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			newW[lo]++
		}
		var keep []int
		for i, w := range newW {
			if w > 0 {
				keep = append(keep, i)
			}
		}
		if len(keep) == 0 {
			return nil, fmt.Errorf("bootstrap: partition %q resampled to nothing", p.Name)
		}
		rp := p.Select(keep)
		for j, i := range keep {
			rp.Weights[j] = newW[i]
		}
		out.Parts = append(out.Parts, rp)
	}
	return out, nil
}

// AnnotatedNewick renders the reference tree with integer percent support
// values as inner-node labels — the standard "bestTree with support"
// output format ((A,B)95:0.1, ...).
func AnnotatedNewick(ref *tree.Tree, supports []float64) (string, error) {
	refBips := ref.Bipartitions()
	if len(supports) != len(refBips) {
		return "", fmt.Errorf("bootstrap: %d supports for %d bipartitions", len(supports), len(refBips))
	}
	// Map each inner edge (by the half-node with smaller ID) to support.
	edgeSupport := make(map[int]float64)
	i := 0
	for _, e := range ref.Edges() {
		if e.IsTip() || e.Back.IsTip() {
			continue
		}
		edgeSupport[e.ID] = supports[i]
		i++
	}
	var b strings.Builder
	root := ref.Tip(0).Back
	b.WriteByte('(')
	writeAnnotated(&b, ref, ref.Tip(0), ref.Tip(0).Length(0), edgeSupport)
	for _, r := range []*tree.Node{root.Next, root.Next.Next} {
		b.WriteByte(',')
		writeAnnotated(&b, ref, r.Back, r.Length(0), edgeSupport)
	}
	b.WriteString(");")
	return b.String(), nil
}

func writeAnnotated(b *strings.Builder, t *tree.Tree, n *tree.Node, length float64, edgeSupport map[int]float64) {
	if n.IsTip() {
		b.WriteString(t.Taxa[n.TaxonID])
	} else {
		b.WriteByte('(')
		writeAnnotated(b, t, n.Next.Back, n.Next.Length(0), edgeSupport)
		b.WriteByte(',')
		writeAnnotated(b, t, n.Next.Next.Back, n.Next.Next.Length(0), edgeSupport)
		b.WriteByte(')')
		// Support of the edge above n (toward the root direction).
		id := n.ID
		if n.Back.ID < id {
			id = n.Back.ID
		}
		if s, ok := edgeSupport[id]; ok {
			b.WriteString(strconv.Itoa(int(s*100 + 0.5)))
		}
	}
	b.WriteByte(':')
	b.WriteString(strconv.FormatFloat(length, 'g', -1, 64))
}
