package tree

import (
	"fmt"
	"math/bits"
)

// Bipartition is a split of the taxon set induced by one inner edge,
// normalized so that taxon 0's side is always the zero side (making equal
// splits compare equal as byte strings).
type Bipartition struct {
	words []uint64
}

// Key returns a comparable string key for map lookups.
func (b Bipartition) Key() string {
	buf := make([]byte, 8*len(b.words))
	for i, w := range b.words {
		for j := 0; j < 8; j++ {
			buf[i*8+j] = byte(w >> (8 * j))
		}
	}
	return string(buf)
}

// Words returns the one side (the side not containing taxon 0) as a bit
// set over taxon indices, 64 taxa a word. The slice is shared: callers
// must not mutate it.
func (b Bipartition) Words() []uint64 { return b.words }

// Size returns the number of taxa on the one side (the side not containing
// taxon 0).
func (b Bipartition) Size() int {
	s := 0
	for _, w := range b.words {
		s += bits.OnesCount64(w)
	}
	return s
}

// Bipartitions returns the non-trivial splits (those induced by inner
// edges) of the tree.
func (t *Tree) Bipartitions() []Bipartition {
	n := t.NTaxa()
	words := (n + 63) / 64
	var out []Bipartition
	for _, e := range t.Edges() {
		if e.IsTip() || e.Back.IsTip() {
			continue
		}
		bp := Bipartition{words: make([]uint64, words)}
		for _, taxon := range SubtreeTaxa(e) {
			bp.words[taxon/64] |= 1 << (taxon % 64)
		}
		// Normalize: taxon 0 always on the zero side.
		if bp.words[0]&1 != 0 {
			for i := range bp.words {
				bp.words[i] = ^bp.words[i]
			}
			// Clear padding bits beyond n.
			if n%64 != 0 {
				bp.words[words-1] &= (1 << (n % 64)) - 1
			}
		}
		out = append(out, bp)
	}
	return out
}

// RobinsonFoulds returns the Robinson–Foulds distance between two trees on
// the same taxon set: the number of bipartitions present in exactly one of
// the trees. Two identical topologies have distance 0.
func RobinsonFoulds(a, b *Tree) (int, error) {
	if a.NTaxa() != b.NTaxa() {
		return 0, fmt.Errorf("tree: taxon sets differ in size: %d vs %d", a.NTaxa(), b.NTaxa())
	}
	for i := range a.Taxa {
		if a.Taxa[i] != b.Taxa[i] {
			return 0, fmt.Errorf("tree: taxon %d differs: %q vs %q", i, a.Taxa[i], b.Taxa[i])
		}
	}
	setA := make(map[string]bool)
	for _, bp := range a.Bipartitions() {
		setA[bp.Key()] = true
	}
	dist := 0
	seenB := 0
	for _, bp := range b.Bipartitions() {
		if setA[bp.Key()] {
			seenB++
		} else {
			dist++
		}
	}
	dist += len(setA) - seenB
	return dist, nil
}

// SameTopology reports whether the two trees induce identical splits.
func SameTopology(a, b *Tree) bool {
	d, err := RobinsonFoulds(a, b)
	return err == nil && d == 0
}
