package bootstrap

import (
	"math/rand"
	"testing"

	"repro/internal/tree"
)

// The three resolutions of an unrooted 4-taxon tree. Each has exactly
// one non-trivial bipartition, making 4-taxon cases the smallest ones
// where support and consensus do anything at all.
func fourTaxonTrees(t *testing.T) (ab, ac, ad *tree.Tree) {
	t.Helper()
	parse := func(s string) *tree.Tree {
		tr, err := tree.ParseNewick(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	ab = parse("((A:1,B:1):1,C:1,D:1);") // AB|CD
	ac = parse("((A:1,C:1):1,B:1,D:1);") // AC|BD
	ad = parse("((A:1,D:1):1,B:1,C:1);") // AD|BC
	return
}

func TestFourTaxonSupport(t *testing.T) {
	ab, ac, ad := fourTaxonTrees(t)
	if n := len(ab.Bipartitions()); n != 1 {
		t.Fatalf("4-taxon tree has %d non-trivial bipartitions, want 1", n)
	}
	// Reference AB|CD against replicates {AB, AB, AC, AD}: support 2/4.
	sup, err := tableOf(t, ab.Clone(), ab.Clone(), ac, ad).Support(ab, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sup) != 1 || sup[0] != 0.5 {
		t.Fatalf("supports = %v, want [0.5]", sup)
	}
}

func TestFourTaxonConsensusIdenticalReplicates(t *testing.T) {
	ab, _, _ := fourTaxonTrees(t)
	trees := []*tree.Tree{ab, ab.Clone(), ab.Clone()}
	cons, sup, err := Consensus(trees, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.SameTopology(cons, ab) {
		t.Fatalf("consensus of identical replicates differs: %s vs %s", cons.Newick(), ab.Newick())
	}
	if len(sup) != 1 || sup[0] != 1.0 {
		t.Fatalf("supports = %v, want [1]", sup)
	}
	// And the support mapping agrees.
	sv, err := tableOf(t, trees...).Support(ab, len(trees))
	if err != nil {
		t.Fatal(err)
	}
	if sv[0] != 1.0 {
		t.Fatalf("Support = %v, want [1]", sv)
	}
}

func TestFourTaxonConsensusFullyIncongruent(t *testing.T) {
	// One vote for each of the three resolutions: no split reaches the
	// majority threshold, so the consensus is a star — which the binary
	// tree type renders as an arbitrary resolution whose inner edge MUST
	// carry support 0 (the 0-support marker contract of buildFromSplits).
	ab, ac, ad := fourTaxonTrees(t)
	cons, sup, err := Consensus([]*tree.Tree{ab, ac, ad}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := cons.Check(); err != nil {
		t.Fatal(err)
	}
	if len(sup) != 1 {
		t.Fatalf("%d supports on a 4-taxon consensus, want 1", len(sup))
	}
	if sup[0] != 0 {
		t.Fatalf("arbitrary star resolution carries support %g, want the 0-support marker", sup[0])
	}
}

func TestConsensusResolutionTieDeterminism(t *testing.T) {
	// Replicates that agree on one split (AB) and nothing else: the
	// consensus has one supported edge and arbitrarily resolved
	// multifurcations elsewhere. The arbitrary resolutions must be
	// deterministic — identical output for any input order — and every
	// split that is not the agreed one must carry support 0.
	parse := func(s string) *tree.Tree {
		tr, err := tree.ParseNewick(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	t1 := parse("((A:1,B:1):1,((C:1,D:1):1,(E:1,F:1):1):1);")
	t2 := parse("((A:1,B:1):1,((C:1,E:1):1,(D:1,F:1):1):1);")
	t3 := parse("((A:1,B:1):1,((C:1,F:1):1,(D:1,E:1):1):1);")

	abKey := ""
	for _, bp := range t1.Bipartitions() {
		if bp.Size() == 4 { // side away from A: CDEF
			abKey = bp.Key()
		}
	}
	if abKey == "" {
		t.Fatal("could not locate the AB split")
	}

	orders := [][]*tree.Tree{
		{t1, t2, t3},
		{t3, t1, t2},
		{t2, t3, t1},
	}
	var firstNewick string
	var firstSup []float64
	for oi, trees := range orders {
		cons, sup, err := Consensus(trees, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if err := cons.Check(); err != nil {
			t.Fatal(err)
		}
		for i, bp := range cons.Bipartitions() {
			if bp.Key() == abKey {
				if sup[i] != 1.0 {
					t.Fatalf("order %d: unanimous AB split support %g, want 1", oi, sup[i])
				}
			} else if sup[i] != 0 {
				t.Fatalf("order %d: filler split carries support %g, want the 0-support marker", oi, sup[i])
			}
		}
		nw := cons.Newick()
		if oi == 0 {
			firstNewick, firstSup = nw, sup
			continue
		}
		if nw != firstNewick {
			t.Fatalf("order %d: consensus differs from order 0\n%s\n%s", oi, nw, firstNewick)
		}
		for i := range sup {
			if sup[i] != firstSup[i] {
				t.Fatalf("order %d: supports differ: %v vs %v", oi, sup, firstSup)
			}
		}
	}
}

func TestSplitCounterPrefixSupport(t *testing.T) {
	taxa := []string{"A", "B", "C", "D", "E", "F"}
	ref := tree.NewRandom(taxa, 1, rand.New(rand.NewSource(7)))
	var reps []*tree.Tree
	for i := int64(0); i < 8; i++ {
		reps = append(reps, tree.NewRandom(taxa, 1, rand.New(rand.NewSource(200+i))))
	}
	c := NewSplitCounter()
	for i, r := range reps {
		idx, err := c.Add(r)
		if err != nil {
			t.Fatal(err)
		}
		if idx != i {
			t.Fatalf("Add returned index %d, want %d", idx, i)
		}
	}
	if c.Trees() != len(reps) {
		t.Fatalf("Trees() = %d, want %d", c.Trees(), len(reps))
	}
	// Supports over a prefix must equal the brute-force count over
	// exactly that prefix, untouched by the speculative tail.
	for n := 1; n <= len(reps); n++ {
		want := supportOracle(ref, reps[:n])
		got, err := c.Support(ref, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("prefix %d support %d: got %g, want %g", n, i, got[i], want[i])
			}
		}
	}
	if _, err := c.Support(ref, 0); err == nil {
		t.Error("prefix 0 accepted")
	}
	if _, err := c.Support(ref, len(reps)+1); err == nil {
		t.Error("prefix beyond the added replicates accepted")
	}
}

// TestSplitCounterIDs: each distinct split has one id, dense in
// first-seen order, and a replicate's ids name its own splits.
func TestSplitCounterIDs(t *testing.T) {
	ab, ac, _ := fourTaxonTrees(t)
	c := tableOf(t, ab, ac, ab.Clone())
	if c.Splits() != 2 {
		t.Fatalf("Splits() = %d, want 2", c.Splits())
	}
	for i, want := range []int{0, 1, 0} {
		if got := c.TreeSplits(i); len(got) != 1 || got[0] != want {
			t.Fatalf("replicate %d has ids %v, want [%d]", i, got, want)
		}
	}
}

func TestSplitCounterErrors(t *testing.T) {
	a, _, _ := fourTaxonTrees(t)
	small, err := tree.ParseNewick("(A:1,B:1,C:1);", 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSplitCounter()
	if _, err := c.Add(a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(small); err == nil {
		t.Error("taxon-count mismatch accepted")
	}
	renamed, err := tree.ParseNewick("((A:1,B:1):1,C:1,X:1);", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(renamed); err == nil {
		t.Error("taxon-name mismatch accepted")
	}
	if c.Trees() != 1 {
		t.Errorf("refused replicates were counted: Trees() = %d", c.Trees())
	}
	if _, err := c.Support(small, 1); err == nil {
		t.Error("reference taxon mismatch accepted")
	}
	empty := NewSplitCounter()
	if _, err := empty.Support(a, 0); err == nil {
		t.Error("empty counter produced supports")
	}
	if _, _, err := empty.Consensus(0, 0.5); err == nil {
		t.Error("empty counter produced a consensus")
	}
}
