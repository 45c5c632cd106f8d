package tree

import (
	"math/rand"
	"testing"
)

// pickPrunable returns an inner half-node whose siblings both attach to the
// remaining tree, suitable as a prune point, or nil.
func pickPrunable(tr *Tree, rng *rand.Rand) *Node {
	candidates := make([]*Node, 0, 3*tr.NInner())
	for v := 0; v < tr.NInner(); v++ {
		for _, r := range tr.InnerRing(v).Ring() {
			candidates = append(candidates, r)
		}
	}
	rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	for _, c := range candidates {
		if c.Back != nil {
			return c
		}
	}
	return nil
}

func TestPruneRestoreIdentity(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := NewRandom(taxaNames(12), 1, rng)
		before := tr.Newick()
		p := pickPrunable(tr, rng)
		ps, err := tr.Prune(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Restore(ps); err != nil {
			t.Fatal(err)
		}
		if err := tr.Check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := tr.Newick(); got != before {
			t.Fatalf("seed %d: prune+restore changed the tree\nbefore: %s\nafter:  %s", seed, before, got)
		}
	}
}

func TestPruneRegraftRemoveRestore(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := NewRandom(taxaNames(15), 2, rng)
		before := tr.Newick()
		p := pickPrunable(tr, rng)
		ps, err := tr.Prune(p)
		if err != nil {
			t.Fatal(err)
		}
		targets := ps.CandidateEdges(1, 5)
		if len(targets) == 0 {
			// Happens when both remaining neighbors are tips (the
			// remaining tree is a single edge): nothing to try.
			if err := tr.Restore(ps); err != nil {
				t.Fatal(err)
			}
			continue
		}
		for _, e := range targets {
			if err := tr.Regraft(ps, e); err != nil {
				t.Fatalf("seed %d: regraft: %v", seed, err)
			}
			if err := tr.Check(); err != nil {
				t.Fatalf("seed %d: tree invalid after regraft: %v", seed, err)
			}
			if err := tr.RemoveRegraft(ps); err != nil {
				t.Fatalf("seed %d: remove: %v", seed, err)
			}
		}
		if err := tr.Restore(ps); err != nil {
			t.Fatal(err)
		}
		if got := tr.Newick(); got != before {
			t.Fatalf("seed %d: SPR cycle changed the tree", seed)
		}
	}
}

func TestPruneErrors(t *testing.T) {
	tr := NewRandom(taxaNames(8), 1, rand.New(rand.NewSource(1)))
	if _, err := tr.Prune(tr.Tip(0)); err == nil {
		t.Error("pruning at a tip must fail")
	}
}

func TestRegraftChangesTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := NewComb(taxaNames(10), 1)
	orig := tr.Clone()
	// Prune the cherry (T0,T1) and move it far away.
	p := tr.Tip(0).Back           // inner vertex joining T0, T1, rest
	ps, err := tr.Prune(XNode(p)) // any ring member with both siblings attached
	if err != nil {
		// The ring member holding T0 may be the one we need to avoid;
		// find one that works.
		var ok bool
		for _, r := range p.Ring() {
			if ps, err = tr.Prune(r); err == nil {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatal("could not prune")
		}
	}
	targets := ps.CandidateEdges(2, 8)
	e := targets[rng.Intn(len(targets))]
	if err := tr.Regraft(ps, e); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	d, err := RobinsonFoulds(orig, tr)
	if err != nil {
		t.Fatal(err)
	}
	if d == 0 {
		t.Log("regraft landed on a topology-equivalent edge (possible for adjacent edges); acceptable")
	}
}

func TestCandidateEdgesRadius(t *testing.T) {
	tr := NewComb(taxaNames(12), 1)
	rng := rand.New(rand.NewSource(8))
	p := pickPrunable(tr, rng)
	ps, err := tr.Prune(p)
	if err != nil {
		t.Fatal(err)
	}
	r1 := len(ps.CandidateEdges(1, 1))
	r3 := len(ps.CandidateEdges(1, 3))
	rBig := len(ps.CandidateEdges(1, 100))
	if r1 > r3 || r3 > rBig {
		t.Fatalf("neighborhood sizes not monotone: %d, %d, %d", r1, r3, rBig)
	}
	if r1 == 0 {
		t.Fatal("radius-1 neighborhood empty")
	}
	// All candidates must lie in the remaining tree and exclude the
	// merged edge.
	for _, e := range ps.CandidateEdges(1, 100) {
		if e == ps.origLeft || e == ps.origRight {
			t.Fatal("merged edge offered as candidate")
		}
		if e.Back == nil {
			t.Fatal("detached candidate")
		}
	}
	// minRadius filters out the closest shells.
	if got := len(ps.CandidateEdges(2, 3)); got >= r3 {
		t.Fatalf("minRadius=2 returned %d, want fewer than %d", got, r3)
	}
	if err := tr.Restore(ps); err != nil {
		t.Fatal(err)
	}
}

func TestRandomSPRStormPreservesInvariants(t *testing.T) {
	// Property test: any sequence of prune/regraft pairs keeps the tree
	// valid and keeps the taxon set intact.
	rng := rand.New(rand.NewSource(2026))
	tr := NewRandom(taxaNames(20), 1, rng)
	for move := 0; move < 200; move++ {
		p := pickPrunable(tr, rng)
		ps, err := tr.Prune(p)
		if err != nil {
			continue
		}
		targets := ps.CandidateEdges(1, 1+rng.Intn(6))
		if len(targets) == 0 {
			if err := tr.Restore(ps); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := tr.Regraft(ps, targets[rng.Intn(len(targets))]); err != nil {
			t.Fatalf("move %d: %v", move, err)
		}
		if err := tr.Check(); err != nil {
			t.Fatalf("move %d: %v", move, err)
		}
	}
}

// TestPruneIntoReusesOnlyAFreeMergedBranch: one PrunedSubtree serves a
// whole sweep of prune points. A restored prune gives its merged-edge
// record back (the next PruneInto allocates nothing); a kept move leaves
// the record wired into the tree, and the next PruneInto must not write
// through it.
func TestPruneIntoReusesOnlyAFreeMergedBranch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := NewRandom(taxaNames(14), 2, rng)
	var ps PrunedSubtree
	p := pickPrunable(tr, rng)
	if err := tr.PruneInto(&ps, p); err != nil {
		t.Fatal(err)
	}
	if err := tr.Restore(&ps); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() {
		if tr.PruneInto(&ps, p) != nil || tr.Restore(&ps) != nil {
			t.Fatal("prune/restore failed")
		}
	}); n != 0 {
		t.Errorf("prune + restore through a reused record allocates %v times", n)
	}

	// Keep SPR moves, reusing ps throughout, and compare against a clone
	// taken after each move: later prunes must leave kept edges alone.
	for moves := 0; moves < 20; {
		p := pickPrunable(tr, rng)
		if err := tr.PruneInto(&ps, p); err != nil {
			t.Fatal(err)
		}
		cands := ps.CandidateEdges(1, 4)
		if len(cands) == 0 {
			if err := tr.Restore(&ps); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := tr.Regraft(&ps, cands[rng.Intn(len(cands))]); err != nil {
			t.Fatal(err)
		}
		moves++
		kept := tr.Newick()
		q := pickPrunable(tr, rng)
		if err := tr.PruneInto(&ps, q); err != nil {
			t.Fatal(err)
		}
		if err := tr.Restore(&ps); err != nil {
			t.Fatal(err)
		}
		if err := tr.Check(); err != nil {
			t.Fatal(err)
		}
		if got := tr.Newick(); got != kept {
			t.Fatalf("a prune after a kept move changed the tree\nbefore: %s\nafter:  %s", kept, got)
		}
	}
}
