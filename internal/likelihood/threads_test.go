package likelihood_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/threadpool"
	"repro/internal/traversal"
	"repro/internal/tree"
)

// threadedFixture rebuilds the same deterministic fixture and attaches a
// pool of the given size (0 = serial nil pool). The fixture is large
// enough that the pattern range spans many blocks.
func threadedFixture(t *testing.T, het model.Heterogeneity, threads int) (*fixture, *threadpool.Pool) {
	t.Helper()
	f := makeFixture(t, 12, 2000, het, 7)
	if nb := threadpool.NumBlocks(f.kern.NPatterns()); nb < 3 {
		t.Fatalf("fixture spans only %d blocks; too small to exercise threading", nb)
	}
	var p *threadpool.Pool
	if threads > 0 {
		p = threadpool.New(threads)
		f.kern.Pool = p
	}
	return f, p
}

// programTrace stages on k, one engine call's worth at a time, every kind
// of program a kernel runs — a traversal with its evaluation; a sum table
// with two derivative evaluations, and a third in a program of its own;
// evaluations and sum tables with a tip on the far side and on both
// sides; the pre-order pass with the contracting gradient of every edge;
// the reuse gradient of every edge; the insertion plans of two prune
// points, one of them a tip — hands each to flush, and returns every
// output bit: the results in staging order and the digest of every inner
// CLV slot of tr.
func programTrace(t *testing.T, tr *tree.Tree, k stager, flush func(*likelihood.Kernel)) []uint64 {
	t.Helper()
	var out []uint64
	lnL := func(n int) {
		for i := 0; i < n; i++ {
			out = append(out, math.Float64bits(k.LnL(i)))
		}
	}
	grads := func(n int) {
		for i := 0; i < n; i++ {
			d1, d2 := k.Gradient(i)
			out = append(out, math.Float64bits(d1), math.Float64bits(d2))
		}
	}

	p := tr.Tip(0)
	pRef, qRef := traversal.Ref(tr, p), traversal.Ref(tr, p.Back)
	k.Traverse(traversal.ForEdge(tr, p, 0, true))
	k.Evaluate(pRef, qRef, p.Length(0))
	flush(k.Kernel)
	lnL(1)
	for s := 0; s < tr.NInner(); s++ {
		out = append(out, k.CLVDigest(s))
	}

	k.Contract(0, pRef, qRef)
	k.Derivatives(0, 0.05)
	k.Derivatives(0, 0.2)
	flush(k.Kernel)
	grads(2)
	k.Derivatives(0, 0.7)
	flush(k.Kernel)
	grads(1)

	// No edge of a tree joins two tips, but the kernel takes such a pair.
	for _, pq := range [][2]likelihood.Ref{{qRef, pRef}, {likelihood.TipAt(1), likelihood.TipAt(2)}} {
		k.Evaluate(pq[0], pq[1], 0.3)
		k.Contract(0, pq[0], pq[1])
		k.Derivatives(0, 0.3)
	}
	flush(k.Kernel)
	grads(4)

	plan, _ := traversal.BuildGradient(tr, nil)
	k.Traverse(plan.Pre[0])
	for b, e := range plan.Edges {
		k.Contract(b, e.P, e.Q)
		k.Derivatives(b, plan.T[0][b])
	}
	flush(k.Kernel)
	grads(plan.NBranches())
	for b := range plan.Edges {
		k.Derivatives(b, 1.5*plan.T[0][b])
	}
	flush(k.Kernel)
	grads(plan.NBranches())

	for _, ins := range insertionPlans(t, tr) {
		k.Traverse(ins.Post[0])
		k.PrepareInsertion(ins.Sub, ins.SubT[0])
		for c, step := range ins.Pre[0] {
			k.ScoreInsertion(step, ins.Far[c], ins.Half[0][c])
		}
		flush(k.Kernel)
		lnL(ins.NCandidates())
	}
	return out
}

// insertionPlans returns the insertion plans of two prune points of tr,
// each on a clone of its own: the one that prunes tip 0, and its
// neighbour's.
func insertionPlans(t *testing.T, tr *tree.Tree) []*traversal.InsertPlan {
	t.Helper()
	var plans []*traversal.InsertPlan
	for _, at := range []func(*tree.Tree) *tree.Node{
		func(c *tree.Tree) *tree.Node { return c.Tip(0).Back },
		func(c *tree.Tree) *tree.Node { return c.Tip(0).Back.Next },
	} {
		pruned := tr.Clone()
		ps, err := pruned.Prune(at(pruned))
		if err != nil {
			t.Fatal(err)
		}
		ins := new(traversal.InsertPlan)
		dirty := make([]bool, pruned.NInner())
		for i := range dirty {
			dirty[i] = true
		}
		ins.Build(pruned, ps, ps.CandidateEdges(1, 5), dirty)
		plans = append(plans, ins)
	}
	return plans
}

// sameBits reports the first output where got and want differ.
func sameBits(t *testing.T, label string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: output %d: %x (%g), want %x (%g)", label, i, got[i], math.Float64frombits(got[i]), want[i], math.Float64frombits(want[i]))
			return
		}
	}
}

// TestThreadedKernelsBitIdentical is the §V determinism contract at the
// kernel: a program executed block-major — every operation over one
// pattern block, then the next block, the blocks spread over a pool —
// yields byte for byte what the same program yields executed op-major on
// one goroutine (the order kernels ran in before programs existed), with
// no pool and with 1, 2, 3 and 4 threads, for both rate models and every
// kind of program (docs/DETERMINISM.md §2 and §8) — with the vector lanes
// on and off, the reference run without them.
func TestThreadedKernelsBitIdentical(t *testing.T) {
	defer likelihood.SetLanes(likelihood.SetLanes(0))
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		likelihood.SetLanes(0)
		oracle, _ := threadedFixture(t, het, 0)
		want := programTrace(t, oracle.tree, passThrough(oracle), (*likelihood.Kernel).FlushOpMajor)
		for _, lanes := range laneSettings(t) {
			likelihood.SetLanes(lanes)
			for _, threads := range []int{0, 1, 2, 3, 4} {
				f, pool := threadedFixture(t, het, threads)
				got := programTrace(t, f.tree, passThrough(f), func(k *likelihood.Kernel) { k.Flush(pool) })
				pool.Close()
				label := fmt.Sprintf("%v T=%d width=%d", het, threads, lanes)
				sameBits(t, label+": block-major vs op-major without lanes", got, want)
				checkLanesReached(t, label, het, lanes, f.kern.Kernel)
			}
		}
	}
}

// laneSettings are the lane widths a kernel test runs under: 0, the Go
// loops, which is every test's reference, and each width the CPU runs —
// 4 and 8 on an AVX-512 CPU, so the four-wide routines stay under test
// there too.
func laneSettings(t *testing.T) []int {
	w := likelihood.LaneWidths()
	if len(w) == 1 {
		t.Log("this CPU has no AVX2: the runs in lanes are skipped")
	}
	return w
}

// hostLaneWidth is the width the lanes run at unless a test sets another:
// the widest the CPU runs.
func hostLaneWidth() int {
	w := likelihood.LaneWidths()
	return w[len(w)-1]
}

// checkLanesReached fails unless a kernel's Newview, evaluation and
// insertion-score sites reached the vector lanes as they should at lane
// width: at width 4 or 8 every PSR site (there is no tail), under Γ every
// site at width 8 (the last 1–7 of a block under a mask) and every site
// but the tail of up to three per operation at width 4 — nPat &^ 3 of
// every nPat, every operand shape having lanes — so a test that runs
// lanes compares them, not the Go loops twice; at width 0, none.
func checkLanesReached(t *testing.T, label string, het model.Heterogeneity, width int, k *likelihood.Kernel) {
	t.Helper()
	fp, nPat := k.Counters(), int64(k.NPatterns())
	switch {
	case fp[telemetry.RankSites] == 0:
		t.Errorf("%s: no Newview, evaluation or insertion-score site counted", label)
	case width == 0 && fp[telemetry.RankLaneSites] != 0:
		t.Errorf("%s: %d of %d sites in lanes that are off", label, fp[telemetry.RankLaneSites], fp[telemetry.RankSites])
	case width != 0 && het == model.PSR && fp[telemetry.RankLaneSites] != fp[telemetry.RankSites]:
		t.Errorf("%s: %d of %d PSR sites in lanes, want every one", label, fp[telemetry.RankLaneSites], fp[telemetry.RankSites])
	case width == 8 && het == model.Gamma && fp[telemetry.RankLaneSites] != fp[telemetry.RankSites]:
		t.Errorf("%s: %d of %d Γ sites in lanes at width 8, want every one", label, fp[telemetry.RankLaneSites], fp[telemetry.RankSites])
	case width == 4 && het == model.Gamma && fp[telemetry.RankLaneSites]*nPat != fp[telemetry.RankSites]*(nPat&^3):
		t.Errorf("%s: %d of %d Γ sites in lanes at width 4, want %d of every %d", label, fp[telemetry.RankLaneSites], fp[telemetry.RankSites], nPat&^3, nPat)
	}
}

// TestThreadedKernelReuse moves the virtual root around with a pool
// attached — many kernel invocations reusing the same block slot array —
// and cross-checks each evaluation bitwise against a serial twin kernel
// walking the same edges. Under -race this exercises the pool with a
// realistic call pattern.
func TestThreadedKernelReuse(t *testing.T) {
	serial, _ := threadedFixture(t, model.Gamma, 0)
	f, pool := threadedFixture(t, model.Gamma, 4)
	defer pool.Close()
	// Both fixtures are deterministic twins, so edge lists correspond
	// index for index.
	edges := f.tree.Edges()
	refEdges := serial.tree.Edges()
	if len(edges) > 8 {
		edges, refEdges = edges[:8], refEdges[:8]
	}
	for i := range edges {
		got := math.Float64bits(f.evalAt(edges[i]))
		want := math.Float64bits(serial.evalAt(refEdges[i]))
		if got != want {
			t.Fatalf("edge %d: threaded lnL bits %x != serial %x", i, got, want)
		}
	}
}

// TestSharedArenaChangesNoBit holds the two ways a rank drives kernels that
// take their tables from one ProgramArena to the same kernels with an
// arena each. A serial rank runs and finishes one kernel's program before
// it stages the next kernel's: every program kind gives the same bits, and
// the second kernel builds its tables in the memory the first one used —
// the arena does not grow. A rank with a pool stages every kernel, runs
// them all and only then finishes them: nothing handed to one kernel may
// be handed to the other in between.
func TestSharedArenaChangesNoBit(t *testing.T) {
	flush := func(k *likelihood.Kernel) { k.Flush(nil) }
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		var arena likelihood.ProgramArena
		var fs []*fixture
		var want [][]uint64
		for seed := int64(7); seed <= 8; seed++ {
			own := makeFixture(t, 12, 2000, het, seed)
			want = append(want, programTrace(t, own.tree, passThrough(own), flush))
			f := makeFixture(t, 12, 2000, het, seed)
			f.kern.ShareArena(&arena)
			fs = append(fs, f)
		}

		held := 0
		for n, f := range fs {
			got := programTrace(t, f.tree, passThrough(f), flush)
			sameBits(t, fmt.Sprintf("%v kernel %d: shared arena vs own arena", het, n), got, want[n])
			if n == 0 {
				held = arena.Cap()
			}
		}
		if held == 0 || arena.Cap() != held {
			t.Errorf("%v: arena holds %d doubles after one kernel's programs, %d after a second kernel's", het, held, arena.Cap())
		}

		for _, f := range fs {
			p := f.tree.Tip(0)
			f.kern.Kernel.Traverse(traversal.ForEdge(f.tree, p, 0, true))
			f.kern.Kernel.Evaluate(traversal.Ref(f.tree, p), traversal.Ref(f.tree, p.Back), p.Length(0))
		}
		for _, f := range fs {
			for blk := 0; blk < f.kern.NBlocks(); blk++ {
				f.kern.RunBlock(blk, nil)
			}
		}
		for n, f := range fs {
			f.kern.Finish()
			if got := math.Float64bits(f.kern.LnL(0)); got != want[n][0] {
				t.Errorf("%v kernel %d: two programs in flight on one arena: lnL bits %x, own arena %x", het, n, got, want[n][0])
			}
		}
	}
}
