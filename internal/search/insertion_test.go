package search_test

import (
	"strings"
	"testing"

	"repro/internal/distrib"
	"repro/internal/enginecore"
	"repro/internal/model"
	"repro/internal/msa"
	"repro/internal/search"
	"repro/internal/seqgen"
	"repro/internal/traversal"
	"repro/internal/tree"
)

// oracleDataset is 12 taxa × {1200, 90} bp: per rank of two, one
// partition of several thread blocks that stays on the worker pool and
// one that is fused into the small-partition batch.
func oracleDataset(t testing.TB) *msa.Dataset {
	t.Helper()
	res, err := seqgen.Generate(seqgen.Config{
		NTaxa: 12,
		Specs: []seqgen.Spec{
			{Name: "big", NSites: 1200, Alpha: 0.7, GapProb: 0.02},
			{Name: "small", NSites: 90, Alpha: 1.1, GapProb: 0.02},
		},
		Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func cyclicAssignment(t testing.TB, d *msa.Dataset, ranks int) *distrib.Assignment {
	t.Helper()
	counts := make([]int, d.NPartitions())
	for i, p := range d.Parts {
		counts[i] = p.NPatterns()
	}
	assign, err := distrib.Compute(distrib.Cyclic, counts, ranks)
	if err != nil {
		t.Fatal(err)
	}
	return assign
}

// localEngine is one serial rank without a communicator: the rank-local
// halves of every operation, with the kernels in reach of the test.
type localEngine struct {
	search.PerBranch
	t *testing.T
	l *enginecore.Local
	// branches counts contracting one-edge gradient plans: only an SPR
	// verification's branch optimizations issue them here.
	branches int
	// outerClobbered is set by an insertion plan and cleared by the next
	// all-edge gradient plan, which must recompute every outer vector (a
	// one-edge plan reads none).
	outerClobbered bool
}

func newLocalEngine(t *testing.T, d *msa.Dataset, het model.Heterogeneity, perPart bool, threads int) *localEngine {
	t.Helper()
	l, err := enginecore.NewLocal(d, cyclicAssignment(t, d, 1), 0, enginecore.Config{Het: het, Subst: model.GTR, PerPartitionBranches: perPart, Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	e := &localEngine{t: t, l: l}
	e.PerBranch = search.NewPerBranch(e)
	return e
}

func (e *localEngine) NPartitions() int                           { return e.l.NPart }
func (e *localEngine) BLClasses() int                             { return e.l.BLClasses() }
func (e *localEngine) Traverse(d *traversal.Descriptor)           { e.l.Traverse(d) }
func (e *localEngine) Close()                                     { e.l.Close() }
func (e *localEngine) Evaluate(d *traversal.Descriptor) []float64 { return e.l.EvaluateLocal(d) }

func (e *localEngine) AllBranchDerivatives(plan *traversal.GradPlan) []float64 {
	if plan.NBranches() == 1 && !plan.Reuse {
		e.branches++
	} else if e.outerClobbered && !plan.Reuse {
		if got, want := len(plan.Pre[0]), plan.NBranches()-1; got != want {
			e.t.Errorf("first gradient plan after an insertion plan recomputes %d of %d outer vectors", got, want)
		}
		e.outerClobbered = false
	}
	return e.l.ByClass(e.l.AllBranchDerivativesPerPartition(plan), plan.NBranches())
}

func (e *localEngine) ScoreInsertions(plan *traversal.InsertPlan) []float64 {
	e.outerClobbered = true
	return e.l.ScoreInsertionsLocal(plan)
}

func (e *localEngine) SetShared(params [][]float64) {
	if err := e.l.SetSharedLocal(params); err != nil {
		e.t.Fatal(err)
	}
}

// OptimizeSiteRates is the PSR pipeline of a world of one rank: nothing to
// reduce between the local statistics and their resolution.
func (e *localEngine) OptimizeSiteRates(d *traversal.Descriptor) []float64 {
	res := enginecore.ResolveSiteRates(e.l.OptimizeSiteRatesLocal(d), e.l.NPart, e.l.PerPartBranches)
	e.l.ApplySiteRates(res)
	return res.Scale
}

// TestRejectedPrunePointLeavesValidCLVs pins what scoring may touch: a
// prune point that verified nothing wrote only vectors that are valid
// for the restored tree, so every slot not marked dirty holds the bytes
// a forced traversal toward its orientation computes.
func TestRejectedPrunePointLeavesValidCLVs(t *testing.T) {
	d := makeDataset(t, 14, 2, 150, 8)
	eng, ref := newLocalEngine(t, d, model.Gamma, false, 1), newLocalEngine(t, d, model.Gamma, false, 1)
	defer eng.Close()
	defer ref.Close()
	s, err := search.NewSearcher(eng, d, search.Config{Het: model.Gamma, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cur := s.Prepare()
	n := s.Tree.NTaxa()
	unverified := 0
	for v := 0; v < s.Tree.NInner(); v++ {
		for _, p := range s.Tree.InnerRing(v).Ring() {
			before := eng.branches
			improved, lnl, err := s.TryPrunePoint(p, 5, cur)
			if err != nil {
				t.Fatal(err)
			}
			if improved {
				cur = lnl
			}
			if eng.branches != before {
				continue
			}
			unverified++
			for slot, dirty := range s.Dirty() {
				if dirty {
					continue
				}
				clone := s.Tree.Clone()
				x := tree.XNode(clone.Node(n + 3*slot))
				ref.Traverse(traversal.Build(clone, x, true))
				for ki, k := range eng.l.Kernels {
					if got, want := k.CLVDigest(slot), ref.l.Kernels[ki].CLVDigest(slot); got != want {
						t.Fatalf("prune point %d: clean slot %d kernel %d: digest %x, forced traversal %x", p.ID, slot, ki, got, want)
					}
				}
			}
		}
	}
	if unverified == 0 {
		t.Fatal("every prune point verified something: nothing was checked")
	}
}

// TestSmootherRecomputesOuterVectorsAfterSPR pins why an insertion plan
// may overwrite the smoother's outer slots: the first sweep after an SPR
// round never reuses them.
func TestSmootherRecomputesOuterVectorsAfterSPR(t *testing.T) {
	d := makeDataset(t, 10, 2, 80, 6)
	eng := newLocalEngine(t, d, model.Gamma, false, 1)
	s, err := search.NewSearcher(eng, d, search.Config{Het: model.Gamma, Seed: 9, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.outerClobbered {
		t.Error("no gradient plan followed the last insertion plan")
	}
}

// TestRunFailsOnBrokenTreeSurgery: a prune point whose tree cannot be put
// back together fails the run with an error, not the process with a
// panic. The hook regrafts the subtree behind the search's back, so the
// restore (or the regraft of the best candidate) that follows must fail.
func TestRunFailsOnBrokenTreeSurgery(t *testing.T) {
	d := makeDataset(t, 9, 2, 60, 3)
	eng := newLocalEngine(t, d, model.Gamma, false, 1)
	s, err := search.NewSearcher(eng, d, search.Config{Het: model.Gamma, Seed: 4, MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetInsertionHook(func(ps *tree.PrunedSubtree, cands []*tree.Node, _ []float64) {
		if err := s.Tree.Regraft(ps, cands[0]); err != nil {
			t.Error(err)
		}
	})
	res, err := s.Run()
	if err == nil {
		t.Fatalf("run succeeded with lnL %v on a tree whose surgery was sabotaged", res.LnL)
	}
	if msg := err.Error(); !strings.Contains(msg, "search: restore") && !strings.Contains(msg, "search: regraft best") {
		t.Errorf("error %q does not name the failed tree operation", msg)
	}
}
