package search_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/decentral"
	"repro/internal/enginecore"
	"repro/internal/forkjoin"
	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/search"
	"repro/internal/traversal"
	"repro/internal/tree"
)

// The search's reference is a second engine, not a second path through
// the search: no copy of the forced-traversal mode, the per-branch
// smoothing sweep or the per-candidate scoring earlier PRs deleted is
// kept. What the searcher gets back from its engine — incrementally
// refreshed CLVs, reused outer vectors, cached sum tables, insertion
// tables — is compared, bit for bit and call by call, with what a twin
// engine returns for the same tree computed from nothing, by calls the
// product keeps for its own reasons: a forced full traversal (what every
// model probe issues) and PrepareBranch + BranchDerivatives (what an SPR
// verification issues).

// mirrorEngine forwards every call that changes model state inside the
// engine to a twin as well, so the twin holds the same parameters (and,
// under PSR, the same per-site rates) whenever it is asked to evaluate.
type mirrorEngine struct {
	search.Engine
	twin search.Engine
}

func (m *mirrorEngine) SetShared(params [][]float64) {
	m.Engine.SetShared(params)
	m.twin.SetShared(params)
}

func (m *mirrorEngine) OptimizeSiteRates(d *traversal.Descriptor) []float64 {
	m.twin.OptimizeSiteRates(d)
	return m.Engine.OptimizeSiteRates(d)
}

// twinTally counts what one rank's twinEngine checked.
type twinTally struct {
	// evals is the number of unmasked evaluations compared.
	evals int
	// firstPlans, reusePlans and maskedPlans count the gradient plans
	// compared, by kind: those that opened a sweep, those that reused its
	// cached sum tables, and those narrowed to the edges still moving.
	firstPlans, reusePlans, maskedPlans int
	// candidates is the number of insertion scores compared.
	candidates int
	// engCols and twinCols are the kernel columns the engine and the twin
	// spent on the compared evaluations.
	engCols, twinCols int64
}

// gradCall is one AllBranchDerivatives call of a smoothing sweep, kept
// until the sweep is checked: the engine's result slice and the plan's
// length matrix are both overwritten by the next call.
type gradCall struct {
	got    []float64
	t      [][]float64
	active []bool
}

// twinEngine is mirrorEngine with the reference attached: it holds every
// unmasked Evaluate and every AllBranchDerivatives of the search it
// carries to the twin's from-scratch answer on a clone of the searcher's
// tree. (Masked evaluations are the model probes; TestMaskedProbes…
// holds those.)
type twinEngine struct {
	mirrorEngine
	t     *testing.T
	label string
	// s is the searcher this engine serves, set once it exists.
	s *search.Searcher
	// sweep is the tree as the current smoothing sweep's first plan saw
	// it and calls the sweep's gradient calls so far; checkSweep compares
	// them all, one PrepareBranch per edge.
	sweep *tree.Tree
	calls []gradCall
	twinTally
	reported int
}

// errorf reports the first few mismatches of a run; one stale vector
// shows in every call after it.
func (e *twinEngine) errorf(format string, args ...any) {
	if e.reported++; e.reported <= 5 {
		e.t.Errorf(e.label+": "+format, args...)
	}
}

func columns(eng search.Engine) int64 {
	cols, _ := eng.(interface{ Stats() (int64, float64) }).Stats()
	return cols
}

// Evaluate compares with a forced full traversal of a clone toward the
// same edge: the incremental-traversal contract, checked where a stale
// CLV would first show.
func (e *twinEngine) Evaluate(d *traversal.Descriptor) []float64 {
	e.checkSweep()
	before := columns(e.Engine)
	got := e.Engine.Evaluate(d)
	if d.Active != nil {
		return got
	}
	e.engCols += columns(e.Engine) - before
	// Building d left the X bit of each inner endpoint on the edge.
	clone := e.s.Tree.Clone()
	p := clone.Tip(int(d.P.Idx))
	if d.P.Kind == likelihood.Inner {
		p = tree.XNode(clone.InnerRing(int(d.P.Idx)))
	}
	if traversal.Ref(clone, p.Back) != d.Q {
		e.errorf("evaluation %d: descriptor edge %v-%v not found in the tree", e.evals, d.P, d.Q)
		return got
	}
	before = columns(e.twin)
	want := e.twin.Evaluate(traversal.Build(clone, p, true))
	e.twinCols += columns(e.twin) - before
	for i, w := range want {
		if math.Float64bits(got[i]) != math.Float64bits(w) {
			e.errorf("evaluation %d partition %d: %.17g, forced full traversal %.17g", e.evals, i, got[i], w)
		}
	}
	e.evals++
	return got
}

// AllBranchDerivatives records the call for checkSweep. A plan that does
// not reuse the previous call's state opens a sweep: the tree keeps its
// lengths until the sweep's last call returned.
func (e *twinEngine) AllBranchDerivatives(plan *traversal.GradPlan) []float64 {
	if !plan.Reuse {
		e.checkSweep()
		e.sweep = e.s.Tree.Clone()
		e.firstPlans++
	} else {
		e.reusePlans++
	}
	got := e.Engine.AllBranchDerivatives(plan)
	call := gradCall{got: append([]float64(nil), got...), t: make([][]float64, len(plan.T))}
	for c, row := range plan.T {
		call.t[c] = append([]float64(nil), row...)
	}
	if plan.Active != nil {
		call.active = append([]bool(nil), plan.Active...)
		for _, on := range call.active {
			if !on {
				e.maskedPlans++
				break
			}
		}
	}
	e.calls = append(e.calls, call)
	return got
}

// checkSweep compares every recorded call of the sweep, per edge and
// class, with the twin's PrepareBranch + BranchDerivatives at that edge
// and the call's length, after a forced full traversal of the sweep's
// tree. Newton steps are a pure function of (d1, d2), so equal
// derivatives on every call is an equal smoothing trajectory.
func (e *twinEngine) checkSweep() {
	if e.sweep == nil {
		return
	}
	clone := e.sweep
	e.twin.Traverse(traversal.Build(clone, clone.Tip(0), true))
	_, nodes := traversal.BuildGradient(clone, nil)
	classes, nB := e.twin.BLClasses(), len(nodes)
	ts := make([]float64, classes)
	for b, nd := range nodes {
		e.twin.PrepareBranch(traversal.Build(clone, nd, false))
		for i, call := range e.calls {
			if call.active != nil && !call.active[b] {
				continue
			}
			for c := range ts {
				ts[c] = call.t[c][b]
			}
			d1, d2 := e.twin.BranchDerivatives(ts)
			for c := range ts {
				g1, g2 := call.got[c*nB+b], call.got[classes*nB+c*nB+b]
				if math.Float64bits(g1) != math.Float64bits(d1[c]) || math.Float64bits(g2) != math.Float64bits(d2[c]) {
					e.errorf("gradient call %d of a sweep, edge %d class %d: (%.17g, %.17g), PrepareBranch + BranchDerivatives (%.17g, %.17g)", i, b, c, g1, g2, d1[c], d2[c])
				}
			}
		}
	}
	e.sweep, e.calls = nil, e.calls[:0]
}

// withTwin runs body on every rank that drives a searcher — each rank
// under the de-centralized scheme, the master under fork-join — of a
// two-rank world, with that rank's engine and a twin of the same scheme
// over a second world, and returns what the two worlds communicated. The
// twin always runs on one thread: the thread count is bit-invisible, and
// only the scheme and the rank count shape a sum.
func withTwin(t *testing.T, d *msa.Dataset, scheme string, het model.Heterogeneity, perPart bool, threads int, body func(rank int, eng, twin search.Engine)) (engComm, twinComm mpi.Snapshot) {
	t.Helper()
	const ranks = 2
	assign := cyclicAssignment(t, d, ranks)
	wA, wB := mpi.NewWorld(ranks), mpi.NewWorld(ranks)
	cfgA := enginecore.Config{Het: het, PerPartitionBranches: perPart, Threads: threads}
	cfgB := enginecore.Config{Het: het, PerPartitionBranches: perPart}
	if scheme == "decentral" {
		wA.Run(func(c *mpi.Comm) {
			eng, err := decentral.NewEngine(c, d, assign, cfgA)
			if err != nil {
				t.Error(err)
				return
			}
			defer eng.Close()
			twin, err := decentral.NewEngine(wB.Comm(c.Rank()), d, assign, cfgB)
			if err != nil {
				t.Error(err)
				return
			}
			defer twin.Close()
			body(c.Rank(), eng, twin)
		})
		return wA.Meter().Snapshot(), wB.Meter().Snapshot()
	}
	wA.Run(func(c *mpi.Comm) {
		if c.Rank() != 0 {
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := forkjoin.RunWorker(wB.Comm(c.Rank()), d, assign, cfgB); err != nil {
					t.Error(err)
				}
			}()
			if err := forkjoin.RunWorker(c, d, assign, cfgA); err != nil {
				t.Error(err)
			}
			wg.Wait()
			return
		}
		eng, err := forkjoin.NewMaster(c, d, assign, cfgA)
		if err != nil {
			t.Error(err)
			return
		}
		defer eng.Close()
		twin, err := forkjoin.NewMaster(wB.Comm(0), d, assign, cfgB)
		if err != nil {
			t.Error(err)
			return
		}
		defer twin.Close()
		body(0, eng, twin)
	})
	return wA.Meter().Snapshot(), wB.Meter().Snapshot()
}

// checkInsertions is the insertion hook: regraft for real, clone, undo,
// and ask the twin for a forced full evaluation of the clone.
func (e *twinEngine) checkInsertions(ps *tree.PrunedSubtree, cands []*tree.Node, scores []float64) {
	nPart := e.twin.NPartitions()
	if len(scores) != len(cands)*nPart {
		e.errorf("%d scores for %d candidates x %d partitions", len(scores), len(cands), nPart)
		return
	}
	for i, m := range cands {
		if err := e.s.Tree.Regraft(ps, m); err != nil {
			e.t.Error(err)
			return
		}
		clone := e.s.Tree.Clone()
		if err := e.s.Tree.RemoveRegraft(ps); err != nil {
			e.t.Error(err)
			return
		}
		want := e.twin.Evaluate(traversal.Build(clone, clone.Node(ps.Root.ID), true))
		for p, w := range want {
			if got := scores[i*nPart+p]; math.Float64bits(got) != math.Float64bits(w) {
				e.errorf("insertion %d partition %d: score %.17g, forced evaluation of the regrafted tree %.17g", e.candidates, p, got, w)
			}
		}
		e.candidates++
	}
}

// TestSearchMatchesTwinEngine runs one whole search per cell of
// {de-centralized, fork-join} × {Γ, PSR} × {joint, -M} × T ∈ {1, 2} with
// every evaluation, every all-branch gradient and every insertion score
// held to the twin, and wants the search to have been cheaper than its
// reference: fewer columns on every rank's compared evaluations, fewer
// branch-length collectives in all. The ranks of a de-centralized run
// make the same calls; their columns differ with the patterns each holds.
func TestSearchMatchesTwinEngine(t *testing.T) {
	d := oracleDataset(t)
	const ranks = 2
	for _, scheme := range []string{"decentral", "forkjoin"} {
		for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
			for _, perPart := range []bool{false, true} {
				for _, threads := range []int{1, 2} {
					label := fmt.Sprintf("%s/%v/M=%v/T%d", scheme, het, perPart, threads)
					scfg := search.Config{Het: het, PerPartitionBranches: perPart, Seed: 5, MaxIterations: 1}
					var tallies [ranks]twinTally
					// run is one rank's searcher over its engine, every
					// result checked against that rank's twin.
					run := func(rank int, eng, twin search.Engine) {
						te := &twinEngine{mirrorEngine: mirrorEngine{Engine: eng, twin: twin}, t: t, label: label}
						s, err := search.NewSearcher(te, d, scfg)
						if err != nil {
							t.Error(err)
							return
						}
						te.s = s
						s.SetInsertionHook(te.checkInsertions)
						if _, err := s.Run(); err != nil {
							t.Errorf("%s: %v", label, err)
						}
						te.checkSweep() // nothing pending unless the run ended inside a sweep
						tallies[rank] = te.twinTally
					}
					engComm, twinComm := withTwin(t, d, scheme, het, perPart, threads, run)
					got := tallies[0]
					if got.evals == 0 || got.firstPlans == 0 || got.reusePlans == 0 || got.maskedPlans == 0 || got.candidates == 0 {
						t.Errorf("%s: a kind of call went unchecked: %+v", label, got)
					}
					calls := func(t twinTally) twinTally {
						t.engCols, t.twinCols = 0, 0
						return t
					}
					if scheme == "decentral" && calls(tallies[1]) != calls(got) {
						t.Errorf("%s: rank 1 checked %+v, rank 0 %+v", label, tallies[1], got)
					}
					for rank, tl := range tallies {
						if tl.evals > 0 && tl.engCols >= tl.twinCols {
							t.Errorf("%s: rank %d's compared evaluations scheduled %d columns, their forced traversals %d — no work was reused", label, rank, tl.engCols, tl.twinCols)
						}
					}
					if e, w := engComm.Ops[mpi.ClassBranchLength], twinComm.Ops[mpi.ClassBranchLength]; e >= w {
						t.Errorf("%s: %d branch-length collectives, per-edge reference %d — want strictly fewer", label, e, w)
					}
				}
			}
		}
	}
}
