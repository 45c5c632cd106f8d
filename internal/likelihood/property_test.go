package likelihood_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/traversal"
	"repro/internal/tree"
)

// TestSPRStormLikelihoodConsistency is the integration property that ties
// tree surgery, partial traversals, X-bit bookkeeping, and the kernels
// together: after ANY sequence of applied SPR moves, a forced full
// traversal must yield the same likelihood as an independently built
// fresh kernel on the same topology — i.e. no stale CLV ever leaks into a
// forced evaluation, no matter how the X bits were scrambled by history.
func TestSPRStormLikelihoodConsistency(t *testing.T) {
	f := makeFixture(t, 14, 40, model.Gamma, 101)
	rng := rand.New(rand.NewSource(7))
	// Engines always begin with a forced full traversal; partial
	// traversals below then start from fully populated CLVs.
	f.evalAt(f.tree.Tip(0))

	for move := 0; move < 30; move++ {
		// Random applied SPR move.
		var ps *tree.PrunedSubtree
		var err error
		for try := 0; try < 20; try++ {
			v := rng.Intn(f.tree.NInner())
			ring := f.tree.InnerRing(v).Ring()
			if ps, err = f.tree.Prune(ring[rng.Intn(3)]); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		cands := ps.CandidateEdges(1, 1+rng.Intn(5))
		if len(cands) == 0 {
			if err := f.tree.Restore(ps); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := f.tree.Regraft(ps, cands[rng.Intn(len(cands))]); err != nil {
			t.Fatal(err)
		}

		// Also evaluate mid-history with partial traversals at a random
		// edge (this may consume approximate CLVs — we only require it
		// not to crash and to return a finite value).
		edges := f.tree.Edges()
		e := edges[rng.Intn(len(edges))]
		steps := traversal.ForEdge(f.tree, e, 0, false)
		f.kern.Traverse(steps)
		lazy := f.kern.Evaluate(traversal.Ref(f.tree, e), traversal.Ref(f.tree, e.Back), e.Length(0))
		if math.IsNaN(lazy) || math.IsInf(lazy, 0) {
			t.Fatalf("move %d: lazy evaluation produced %g", move, lazy)
		}

		// Forced full evaluation must match a fresh kernel bit-for-bit.
		got := f.evalAt(f.tree.Tip(0))
		fresh, err := likelihood.NewNow(f.pd, f.par, f.tree.NInner())
		if err != nil {
			t.Fatal(err)
		}
		f2 := &fixture{tree: f.tree, pd: f.pd, par: f.par, kern: fresh}
		want := f2.evalAt(f.tree.Tip(0))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("move %d: stale state leaked into forced evaluation: %.17g vs fresh %.17g", move, got, want)
		}
		if err := f.tree.Check(); err != nil {
			t.Fatalf("move %d: %v", move, err)
		}
	}
}

// TestModelChangeInvalidation checks the other staleness axis: after a
// parameter change (new α), a forced traversal must reflect the new
// model even though X bits still claim validity.
func TestModelChangeInvalidation(t *testing.T) {
	f := makeFixture(t, 10, 50, model.Gamma, 103)
	before := f.evalAt(f.tree.Tip(0))

	f.par.Alpha *= 0.37
	if err := f.par.Rebuild(); err != nil {
		t.Fatal(err)
	}
	after := f.evalAt(f.tree.Tip(0)) // forced full traversal
	if before == after {
		t.Fatal("likelihood identical after α change — stale CLVs were reused")
	}
	// Fresh kernel agreement.
	fresh, err := likelihood.NewNow(f.pd, f.par, f.tree.NInner())
	if err != nil {
		t.Fatal(err)
	}
	f2 := &fixture{tree: f.tree, pd: f.pd, par: f.par, kern: fresh}
	want := f2.evalAt(f.tree.Tip(0))
	if math.Float64bits(after) != math.Float64bits(want) {
		t.Fatalf("model-change evaluation diverges from fresh kernel: %.17g vs %.17g", after, want)
	}
}

// TestBranchLengthChangeReflected checks that evaluating the same edge at
// different proposed lengths moves the likelihood smoothly and
// consistently with a fresh kernel.
func TestBranchLengthChangeReflected(t *testing.T) {
	f := makeFixture(t, 8, 60, model.PSR, 107)
	p := f.tree.Tip(1)
	steps := traversal.ForEdge(f.tree, p, 0, true)
	f.kern.Traverse(steps)
	pr := traversal.Ref(f.tree, p)
	qr := traversal.Ref(f.tree, p.Back)

	prev := math.Inf(-1)
	increased := 0
	for _, t0 := range []float64{0.001, 0.01, 0.05, 0.2, 1.0, 5.0} {
		lnl := f.kern.Evaluate(pr, qr, t0)
		if math.IsNaN(lnl) {
			t.Fatalf("lnl(%g) is NaN", t0)
		}
		if lnl > prev {
			increased++
		}
		prev = lnl
	}
	// A generic likelihood curve over branch length rises to a peak and
	// falls; it cannot be flat.
	if increased == 0 || increased == 6 {
		t.Fatalf("likelihood not unimodal-ish over branch length (increased %d/6 steps)", increased)
	}
}
