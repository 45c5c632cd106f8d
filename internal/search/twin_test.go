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
	"repro/internal/telemetry"
	"repro/internal/traversal"
	"repro/internal/tree"
)

// The search's reference is a second engine, not a second path through
// the search: no copy of the forced-traversal mode, the per-branch
// smoothing sweep, the per-branch Newton path or the per-candidate
// scoring the search no longer has is kept. What the searcher gets back
// from its engine — incrementally refreshed CLVs, reused outer vectors,
// cached sum tables, insertion tables — is compared, bit for bit and call
// by call, with what a twin engine returns for the same tree computed
// from nothing, by calls the product makes for its own reasons: a forced
// full traversal (what every model probe issues) and, for a branch, a
// post-order traversal rooted on it followed by a contracting one-edge
// gradient plan — no outer vector and no reused sum table (the first
// Newton iteration of every branch an SPR verification optimizes).

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
	// compared, by kind: those that opened a Newton loop, those that
	// reused its cached sum tables, and those narrowed to the slots still
	// moving. sweepCalls and branchCalls count them by loop: a smoothing
	// sweep's over every edge, or one branch's.
	firstPlans, reusePlans, maskedPlans int
	sweepCalls, branchCalls             int
	// candidates is the number of insertion scores compared.
	candidates int
	// engCols and twinCols are the kernel columns the engine and the twin
	// spent on the compared evaluations.
	engCols, twinCols int64
}

// gradCall is one AllBranchDerivatives call of a Newton loop, kept until
// the loop is checked: the engine's result slice and the plan's length
// matrix are both overwritten by the next call.
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
	// loop is the tree as the current Newton loop's first plan saw it,
	// nodes the half-node of each of the plan's edges in it, and calls the
	// loop's gradient calls so far; checkGradients compares them all.
	loop  *tree.Tree
	nodes []*tree.Node
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

// columns returns the kernel columns eng's rank has scheduled so far: the
// columns row of the counters its rank body reports to the run driver.
func columns(eng search.Engine) int64 {
	return eng.(interface{ Work() telemetry.RankCounters }).Work()[telemetry.RankColumns]
}

// SetShared and OptimizeSiteRates check what is pending first: the twin
// must answer for the parameters the engine had.
func (e *twinEngine) SetShared(params [][]float64) {
	e.checkGradients()
	e.mirrorEngine.SetShared(params)
}

func (e *twinEngine) OptimizeSiteRates(d *traversal.Descriptor) []float64 {
	e.checkGradients()
	return e.mirrorEngine.OptimizeSiteRates(d)
}

// edgeAt returns the half-node of clone at edge (p, q), as a descriptor
// or a one-edge plan built on the searcher's tree names it: building it
// left the X bit of each inner endpoint on the edge. nil when the tree
// has no such edge.
func edgeAt(clone *tree.Tree, p, q likelihood.Ref) *tree.Node {
	nd := clone.Tip(int(p.Idx))
	if p.Kind == likelihood.Inner {
		nd = tree.XNode(clone.InnerRing(int(p.Idx)))
	}
	if traversal.Ref(clone, nd.Back) != q {
		return nil
	}
	return nd
}

// Evaluate compares with a forced full traversal of a clone toward the
// same edge: the incremental-traversal contract, checked where a stale
// CLV would first show.
func (e *twinEngine) Evaluate(d *traversal.Descriptor) []float64 {
	e.checkGradients()
	before := columns(e.Engine)
	got := e.Engine.Evaluate(d)
	if d.Active != nil {
		return got
	}
	e.engCols += columns(e.Engine) - before
	clone := e.s.Tree.Clone()
	p := edgeAt(clone, d.P, d.Q)
	if p == nil {
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

// AllBranchDerivatives records the call for checkGradients. A plan that
// does not reuse the previous call's sum tables opens a Newton loop — a
// smoothing sweep's over every edge, or one branch's — and the tree keeps
// its lengths until the loop's last call returned.
func (e *twinEngine) AllBranchDerivatives(plan *traversal.GradPlan) []float64 {
	if !plan.Reuse {
		e.checkGradients()
		e.loop = e.s.Tree.Clone()
		if plan.NBranches() == 1 {
			e.nodes = []*tree.Node{edgeAt(e.loop, plan.Edges[0].P, plan.Edges[0].Q)}
			if e.nodes[0] == nil {
				e.errorf("one-edge plan: edge %v-%v not found in the tree", plan.Edges[0].P, plan.Edges[0].Q)
				e.loop = nil
			}
		} else {
			_, e.nodes = traversal.BuildGradient(e.loop, nil)
		}
		e.firstPlans++
	} else if e.loop == nil || plan.NBranches() != len(e.nodes) {
		e.errorf("a Reuse plan of %d edges opens no Newton loop of its own size (%d edges)", plan.NBranches(), len(e.nodes))
		return e.Engine.AllBranchDerivatives(plan)
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

// checkGradients compares every (edge, class) slot a recorded call of the
// Newton loop computed — every slot its mask has on — with the twin's
// answer for that edge alone at the call's lengths: a forced full
// traversal of the loop's tree, the post-order traversal rooted on the
// edge, and a contracting one-edge plan per call, so that nothing — no
// outer vector, no sum table — is reused. Newton steps are a pure
// function of (d1, d2), so equal derivatives on every call is an equal
// branch-length trajectory.
func (e *twinEngine) checkGradients() {
	if e.loop == nil {
		return
	}
	clone := e.loop
	e.twin.Traverse(traversal.Build(clone, clone.Tip(0), true))
	classes, nB := e.twin.BLClasses(), len(e.nodes)
	var ref traversal.GradPlan
	for b, nd := range e.nodes {
		d := traversal.Build(clone, nd, false)
		e.twin.Traverse(d)
		ref.SetEdge(d)
		for i, call := range e.calls {
			for c := range ref.T {
				ref.T[c][0] = call.t[c][b]
			}
			want := e.twin.AllBranchDerivatives(&ref)
			for c := 0; c < classes; c++ {
				if call.active != nil && !call.active[c*nB+b] {
					continue
				}
				g1, g2 := call.got[c*nB+b], call.got[classes*nB+c*nB+b]
				if math.Float64bits(g1) != math.Float64bits(want[c]) || math.Float64bits(g2) != math.Float64bits(want[classes+c]) {
					e.errorf("gradient call %d of a %d-edge Newton loop, edge %d class %d: (%.17g, %.17g), one-edge reference (%.17g, %.17g)", i, nB, b, c, g1, g2, want[c], want[classes+c])
				}
			}
		}
	}
	if nB == 1 {
		e.branchCalls += len(e.calls)
	} else {
		e.sweepCalls += len(e.calls)
	}
	e.loop, e.calls = nil, e.calls[:0]
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
// every evaluation, every gradient call — of the smoothing sweeps and of
// the branches SPR verifications optimize — and every insertion score
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
						te.checkGradients() // nothing pending unless the run ended inside a Newton loop
						tallies[rank] = te.twinTally
					}
					engComm, twinComm := withTwin(t, d, scheme, het, perPart, threads, run)
					got := tallies[0]
					if got.evals == 0 || got.firstPlans == 0 || got.reusePlans == 0 || got.maskedPlans == 0 ||
						got.sweepCalls == 0 || got.branchCalls == 0 || got.candidates == 0 {
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
