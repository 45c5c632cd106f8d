package msa

import (
	"fmt"
	"sort"
)

// Alignment is an uncompressed multiple sequence alignment: a rectangular
// matrix of States with one named row per taxon.
type Alignment struct {
	// Names are the taxon labels, unique, in file order.
	Names []string
	// Seqs[i][j] is the state of taxon i at alignment column j.
	Seqs [][]State
}

// NTaxa returns the number of sequences.
func (a *Alignment) NTaxa() int { return len(a.Names) }

// NSites returns the number of alignment columns (0 for an empty alignment).
func (a *Alignment) NSites() int {
	if len(a.Seqs) == 0 {
		return 0
	}
	return len(a.Seqs[0])
}

// Validate checks rectangularity, name uniqueness, and that at least 3 taxa
// and 1 site are present.
func (a *Alignment) Validate() error {
	if len(a.Names) != len(a.Seqs) {
		return fmt.Errorf("msa: %d names but %d sequences", len(a.Names), len(a.Seqs))
	}
	if len(a.Names) < 3 {
		return fmt.Errorf("msa: need at least 3 taxa, have %d", len(a.Names))
	}
	w := len(a.Seqs[0])
	if w == 0 {
		return fmt.Errorf("msa: empty alignment")
	}
	seen := make(map[string]bool, len(a.Names))
	for i, name := range a.Names {
		if name == "" {
			return fmt.Errorf("msa: taxon %d has empty name", i)
		}
		if seen[name] {
			return fmt.Errorf("msa: duplicate taxon name %q", name)
		}
		seen[name] = true
		if len(a.Seqs[i]) != w {
			return fmt.Errorf("msa: taxon %q has %d sites, want %d", name, len(a.Seqs[i]), w)
		}
		for j, s := range a.Seqs[i] {
			if s == 0 || s > 15 {
				return fmt.Errorf("msa: taxon %q site %d: invalid state %d", name, j, s)
			}
		}
	}
	return nil
}

// SortTaxa reorders the rows so names are in lexicographic order. The tree
// package assigns taxon IDs in sorted-label order, so sorting the alignment
// aligns the two numbering schemes.
func (a *Alignment) SortTaxa() {
	idx := make([]int, a.NTaxa())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return a.Names[idx[x]] < a.Names[idx[y]] })
	names := make([]string, len(idx))
	seqs := make([][]State, len(idx))
	for to, from := range idx {
		names[to] = a.Names[from]
		seqs[to] = a.Seqs[from]
	}
	a.Names, a.Seqs = names, seqs
}

// BaseFrequencies returns the empirical frequencies of A, C, G, T over the
// given site range [lo, hi), counting each ambiguity code fractionally
// toward its compatible bases and ignoring gaps. If no informative
// characters exist the uniform distribution is returned. A small pseudo
// count keeps every frequency strictly positive, as the GTR machinery
// requires.
func (a *Alignment) BaseFrequencies(lo, hi int) [NumStates]float64 {
	var counts [NumStates]float64
	for i := range counts {
		counts[i] = 0.25 // pseudo count
	}
	for _, seq := range a.Seqs {
		for j := lo; j < hi; j++ {
			s := seq[j]
			if s == StateGap {
				continue
			}
			n := 0
			for b := 0; b < NumStates; b++ {
				if s&(1<<b) != 0 {
					n++
				}
			}
			for b := 0; b < NumStates; b++ {
				if s&(1<<b) != 0 {
					counts[b] += 1 / float64(n)
				}
			}
		}
	}
	total := 0.0
	for _, c := range counts {
		total += c
	}
	for i := range counts {
		counts[i] /= total
	}
	return counts
}
