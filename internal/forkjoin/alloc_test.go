package forkjoin

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/distrib"
	"repro/internal/enginecore"
	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/traversal"
	"repro/internal/tree"
)

// TestEngineSteadyStateAllocFree mirrors the decentral-engine test: the
// warm fork-join master — alone, and with a worker as rank 1 of a 2-rank
// in-process world — serial or with a worker pool, must drive a full
// cycle of the calls the search makes without allocating on either rank:
// SetShared with new parameters, Evaluate, one branch's Traverse and
// one-edge plans, the all-edge plan, an insertion plan and, under PSR, a
// site-rate resolution, every cycle at branch lengths no earlier cycle
// used. This is what the master's reused frames and padded descriptor,
// the worker's decode buffers, the Comm's accumulator and the world's
// payload free lists buy; a master alone meters its frames analytically
// and encodes nothing.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		// Two partitions of one pattern block each, then one of several
		// blocks; one thread, then two; one rank, then two.
		for _, shape := range [][4]int{{2, 60, 1, 1}, {1, 900, 1, 1}, {2, 60, 2, 1}, {1, 900, 2, 1}, {2, 60, 1, 2}, {1, 900, 2, 2}} {
			testSteadyStateAllocFree(t, het, shape)
		}
	}
}

func testSteadyStateAllocFree(t *testing.T, het model.Heterogeneity, shape [4]int) {
	nParts, geneLen, threads, ranks := shape[0], shape[1], shape[2], shape[3]
	d := makeDataset(t, 8, nParts, geneLen, 3)
	counts := make([]int, d.NPartitions())
	for i, p := range d.Parts {
		counts[i] = p.NPatterns()
	}
	assign, err := distrib.Compute(distrib.Cyclic, counts, ranks)
	if err != nil {
		t.Fatal(err)
	}
	world := mpi.NewWorld(ranks)
	cfg := enginecore.Config{Het: het, Subst: model.GTR, Threads: threads}
	workers := make(chan error, ranks)
	for r := 1; r < ranks; r++ {
		go func() { workers <- RunWorker(world.Comm(r), d, assign, cfg) }()
	}
	eng, err := NewMaster(world.Comm(0), d, assign, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		eng.Close()
		for r := 1; r < ranks; r++ {
			if err := <-workers; err != nil {
				t.Errorf("worker: %v", err)
			}
		}
	}()
	if nb := eng.local.Kernels[0].NBlocks(); ranks == 1 && (nb == 1) != (nParts == 2) {
		t.Fatalf("%d x %d bp: partition 0 is %d blocks", nParts, geneLen, nb)
	}

	tr := tree.NewRandom(d.Names, 1, rand.New(rand.NewSource(5)))
	// The insertion plan is built on a pruned clone, so the descriptors
	// keep describing tr.
	pruned := tr.Clone()
	ps, err := pruned.Prune(pruned.Tip(0).Back.Next)
	if err != nil {
		t.Fatal(err)
	}
	edges, pEdges := tr.Edges(), pruned.Edges()
	base := make([]float64, len(edges))
	for j, e := range edges {
		base[j] = e.Length(0)
	}
	pBase := make([]float64, len(pEdges))
	for j, e := range pEdges {
		pBase[j] = e.Length(0)
	}
	shared := make([][]float64, nParts)
	for p := range shared {
		shared[p] = make([]float64, model.SharedLen)
	}
	var (
		desc          traversal.Descriptor
		one, oneReuse traversal.GradPlan
		plan          traversal.GradPlan
		nodes, cands  []*tree.Node
		ins           traversal.InsertPlan
		dirty         = allDirty(pruned)
		calls         int
	)
	cycle := func() {
		f := 1 + 1e-3*float64(calls)
		calls++
		for j, e := range edges {
			e.SetLength(0, base[j]*f)
		}
		for j, e := range pEdges {
			e.SetLength(0, pBase[j]*f)
		}
		for _, row := range shared {
			row[model.SharedAlpha] = 0.5 * f
			for r := 0; r < model.NumRates-1; r++ {
				row[model.SharedRates+r] = 1 + 0.1*float64(r)*f
			}
			row[model.SharedRates+model.NumRates-1] = 1
		}
		eng.SetShared(shared)
		desc.Build(tr, tr.Tip(0), true)
		one.SetEdge(&desc)
		oneReuse.SetEdge(&desc)
		oneReuse.Reuse, oneReuse.T[0][0] = true, 0.1*f
		nodes = plan.Build(tr, nil, nodes)
		for j := range dirty {
			dirty[j] = true
		}
		cands = ps.AppendCandidateEdges(cands[:0], 1, 5)
		ins.Build(pruned, ps, cands, dirty)

		eng.Evaluate(&desc)
		eng.Traverse(&desc)
		eng.AllBranchDerivatives(&one)
		eng.AllBranchDerivatives(&oneReuse)
		eng.AllBranchDerivatives(&plan)
		eng.ScoreInsertions(&ins)
		if het == model.PSR {
			eng.OptimizeSiteRates(&desc)
		}
	}
	for range 4 {
		cycle()
	}
	if allocs := testing.AllocsPerRun(30, cycle); allocs != 0 {
		t.Errorf("%v, %d x %d bp, T=%d, %d ranks: steady-state cycle allocates %.1f times per run", het, nParts, geneLen, threads, ranks, allocs)
	}
}

// startWorker starts one fork-join worker on 8 taxa, 2 partitions and
// joint branch lengths as rank 1 of a 2-rank world, and returns the
// master's end and the channel the worker's loop result arrives on.
func startWorker(t *testing.T, het model.Heterogeneity) (*mpi.Comm, <-chan error) {
	t.Helper()
	d := makeDataset(t, 8, 2, 60, 3)
	counts := make([]int, d.NPartitions())
	for i, p := range d.Parts {
		counts[i] = p.NPatterns()
	}
	assign, err := distrib.Compute(distrib.Cyclic, counts, 2)
	if err != nil {
		t.Fatal(err)
	}
	world := mpi.NewWorld(2)
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(world.Comm(1), d, assign, enginecore.Config{Het: het, Subst: model.GTR})
	}()
	return world.Comm(0), done
}

// refusalWorker sends a Γ worker the opcode and the frame the way the
// master would, and returns what the worker's loop ended with.
func refusalWorker(t *testing.T, op byte, frame []byte) error {
	t.Helper()
	master, done := startWorker(t, model.Gamma)
	master.BcastBytes(0, []byte{op}, mpi.ClassControl)
	master.BcastBytes(0, frame, mpi.ClassTraversal)
	return <-done
}

// TestWorkerRefusesShortFrames: the two float64 frames a worker used to
// index unchecked — the parameter matrix and the site-rate resolution —
// end its loop with an error that names the opcode when they are shorter
// than its run needs, not with an index panic that takes the worker
// process down.
func TestWorkerRefusesShortFrames(t *testing.T) {
	const nPart = 2
	cases := []struct {
		name string
		het  model.Heterogeneity
		send func(master *mpi.Comm)
	}{
		{"opSetShared", model.Gamma, func(master *mpi.Comm) {
			master.BcastBytes(0, []byte{opSetShared}, mpi.ClassControl)
			master.Bcast(0, make([]float64, nPart*model.SharedLen-1), mpi.ClassModelParams)
		}},
		{"opSiteRates", model.PSR, func(master *mpi.Comm) {
			tr := tree.NewRandom(makeDataset(t, 8, nPart, 60, 3).Names, 1, rand.New(rand.NewSource(5)))
			desc := traversal.Build(tr, tr.Tip(0), true)
			desc.T = append(desc.T, desc.T[0])
			desc.Steps = append(desc.Steps, desc.Steps[0])
			master.BcastBytes(0, []byte{opSiteRates}, mpi.ClassControl)
			master.BcastBytes(0, desc.Encode(), mpi.ClassTraversal)
			stats := master.Reduce(0, make([]float64, 2*model.MaxPSRCategories*nPart), mpi.OpSum, mpi.ClassModelParams)
			enc := enginecore.ResolveSiteRates(stats, nPart, false).Encode()
			master.Bcast(0, enc[:len(enc)-1], mpi.ClassModelParams)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			master, done := startWorker(t, tc.het)
			tc.send(master)
			err := <-done
			if err == nil || !strings.Contains(err.Error(), tc.name) {
				t.Fatalf("worker ended with %v, want an error naming %s", err, tc.name)
			}
		})
	}
}

// otherTree is a random tree on 20 taxa: more than refusalWorker's 8.
func otherTree(t *testing.T, classes int) *tree.Tree {
	big := makeDataset(t, 20, 1, 20, 4)
	return tree.NewRandom(big.Names, classes, rand.New(rand.NewSource(5)))
}

// TestWorkerRefusesInsertionPlanForAnotherTree: a frame that decodes but
// addresses slots its worker's tree does not have (here: a real plan of
// a larger tree) ends the worker with an error before any kernel indexes
// or grows a buffer from it.
func TestWorkerRefusesInsertionPlanForAnotherTree(t *testing.T) {
	tr := otherTree(t, 1)
	ps, err := tr.Prune(tr.Tip(0).Back.Next)
	if err != nil {
		t.Fatal(err)
	}
	var ins traversal.InsertPlan
	ins.Build(tr, ps, ps.CandidateEdges(1, 5), allDirty(tr))
	if err := refusalWorker(t, opScoreInsertions, ins.Encode()); err == nil {
		t.Fatal("worker executed an insertion plan built for a 20-taxon tree on 8 taxa")
	}
}

// TestWorkerRefusesGradPlanForAnotherTree: a gradient-plan frame that
// decodes but does not fit the worker — slots of a larger tree, or
// per-partition branch lengths on a joint run — ends the worker with an
// error before any kernel indexes or grows a buffer from it.
func TestWorkerRefusesGradPlanForAnotherTree(t *testing.T) {
	small := tree.NewRandom(makeDataset(t, 8, 2, 60, 3).Names, 2, rand.New(rand.NewSource(5)))
	for what, tr := range map[string]*tree.Tree{"a 20-taxon tree": otherTree(t, 1), "2 branch-length classes": small} {
		plan, _ := traversal.BuildGradient(tr, nil)
		if err := refusalWorker(t, opAllBranchDerivs, plan.Encode()); err == nil {
			t.Errorf("worker on 8 taxa and joint branch lengths executed a gradient plan for %s", what)
		}
	}
}

// TestWorkerRefusesDescriptorForAnotherRun: a descriptor frame that decodes
// but does not fit the worker — slots of a larger tree, or a mask over
// another partition count — ends the worker with an error before any
// kernel indexes a buffer, a schedule or the mask from it.
func TestWorkerRefusesDescriptorForAnotherRun(t *testing.T) {
	pad := func(desc *traversal.Descriptor) *traversal.Descriptor {
		desc.T = append(desc.T, desc.T[0])
		desc.Steps = append(desc.Steps, desc.Steps[0])
		return desc
	}
	bigTree := otherTree(t, 1)
	otherTreeDesc := pad(traversal.Build(bigTree, bigTree.Tip(0), true))
	tr := tree.NewRandom(makeDataset(t, 8, 2, 60, 3).Names, 1, rand.New(rand.NewSource(5)))
	otherMask := pad(traversal.Build(tr, tr.Tip(0), true))
	otherMask.Active = []bool{true, false, true}
	long := pad(traversal.Build(tr, tr.Tip(0), true))
	for c := range long.Steps {
		long.Steps[c] = append(long.Steps[c], long.Steps[c][0])
	}
	for what, desc := range map[string]*traversal.Descriptor{"a 20-taxon tree": otherTreeDesc, "3 partitions": otherMask, "more steps than inner vertices": long} {
		if err := refusalWorker(t, opEvaluate, desc.Encode()); err == nil {
			t.Errorf("worker on 8 taxa and 2 partitions executed a descriptor for %s", what)
		}
	}
}

// TestWorkerRefusesRetiredOpcodes: bytes 3 and 4, a per-branch Newton's
// two opcodes before a branch's iteration became a one-edge gradient
// plan, are unknown opcodes to a worker now.
func TestWorkerRefusesRetiredOpcodes(t *testing.T) {
	for _, op := range []byte{3, 4} {
		master, done := startWorker(t, model.Gamma)
		master.BcastBytes(0, []byte{op}, mpi.ClassControl)
		refusedNaming(t, done, fmt.Sprintf("unknown opcode %d", op))
	}
}

// refusedNaming waits for a worker's loop to end and fails unless it ended
// with an error naming op. A worker that admitted the frame waits for the
// master's part of the frame's collective instead, which never comes;
// still running after a while counts as admitted.
func refusedNaming(t *testing.T, done <-chan error, op string) {
	t.Helper()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), op) {
			t.Fatalf("worker ended with %v, want an error naming %s", err, op)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("worker admitted the frame: still running after 10 s, want an error naming %s", op)
	}
}

// TestWorkerRefusesReuseWithoutContraction: a gradient plan with Reuse
// set reads the sum tables the last contracting plan cached. A worker
// that has executed none, one over fewer edges, or one whose mask left
// out an edge the Reuse plan wants, ends its loop with an error naming
// the opcode instead of indexing a sum table it does not hold.
func TestWorkerRefusesReuseWithoutContraction(t *testing.T) {
	tr := tree.NewRandom(makeDataset(t, 8, 2, 60, 3).Names, 1, rand.New(rand.NewSource(5)))
	full := func() *traversal.GradPlan {
		plan, _ := traversal.BuildGradient(tr, nil)
		return plan
	}
	nB := full().NBranches()
	cases := map[string]func() (contract, reuse *traversal.GradPlan){
		"no contracting plan": func() (*traversal.GradPlan, *traversal.GradPlan) {
			return nil, full()
		},
		"a contracting plan over fewer edges": func() (*traversal.GradPlan, *traversal.GradPlan) {
			short := full()
			short.Edges = short.Edges[:nB-2]
			short.T[0] = short.T[0][:nB-2]
			return short, full()
		},
		"a contracting plan that masked the edge": func() (*traversal.GradPlan, *traversal.GradPlan) {
			masked := full()
			masked.Active = make([]bool, len(masked.T)*nB) // classes × edges
			masked.Active[0] = true
			return masked, full()
		},
	}
	for what, build := range cases {
		t.Run(what, func(t *testing.T) {
			contract, reuse := build()
			master, done := startWorker(t, model.Gamma)
			// The worker's CLVs must exist before a gradient plan reads them;
			// descriptors go out with one schedule per partition.
			desc := traversal.Build(tr, tr.Tip(0), true)
			desc.T = append(desc.T, desc.T[0])
			desc.Steps = append(desc.Steps, desc.Steps[0])
			master.BcastBytes(0, []byte{opTraverse}, mpi.ClassControl)
			master.BcastBytes(0, desc.Encode(), mpi.ClassTraversal)
			master.Barrier(mpi.ClassControl)
			if contract != nil {
				master.BcastBytes(0, []byte{opAllBranchDerivs}, mpi.ClassControl)
				master.BcastBytes(0, contract.Encode(), mpi.ClassTraversal)
				master.Reduce(0, make([]float64, 2*2*contract.NBranches()), mpi.OpSum, mpi.ClassBranchLength)
			}
			reuse.Reuse = true
			reuse.Pre[0] = nil
			master.BcastBytes(0, []byte{opAllBranchDerivs}, mpi.ClassControl)
			master.BcastBytes(0, reuse.Encode(), mpi.ClassTraversal)
			err := <-done
			if err == nil || !strings.Contains(err.Error(), "opAllBranchDerivs") {
				t.Fatalf("worker ended with %v, want an error naming opAllBranchDerivs", err)
			}
		})
	}

	// A contracting plan over every edge, then a frame that leaves the
	// tables stale — or a Reuse plan that would make them stale itself.
	desc := traversal.Build(tr, tr.Tip(0), true)
	desc.T = append(desc.T, desc.T[0])
	desc.Steps = append(desc.Steps, desc.Steps[0])
	// Another edge than the plan's edge 0, contracted with no traversal:
	// only the slot's edge tells the tables apart.
	other := tr.Tip(1)
	var otherEdge traversal.GradPlan
	otherEdge.SetEdge(&traversal.Descriptor{
		P: traversal.Ref(tr, other), Q: traversal.Ref(tr, other.Back),
		T: []float64{other.Length(0)}, Steps: make([][]likelihood.Step, 1),
	})
	// A parameter frame for both partitions that moves α off its default.
	par, err := model.NewParams(model.Gamma, model.UniformFreqs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	par.Alpha = 2
	alpha2 := append(par.EncodeShared(), par.EncodeShared()...)
	pruned := tr.Clone()
	ps, err := pruned.Prune(pruned.Tip(0).Back.Next)
	if err != nil {
		t.Fatal(err)
	}
	var ins traversal.InsertPlan
	ins.Build(pruned, ps, ps.CandidateEdges(1, 5), allDirty(pruned))
	since := map[string]func(master *mpi.Comm) (preSteps bool){
		"an opTraverse since": func(master *mpi.Comm) bool {
			master.BcastBytes(0, []byte{opTraverse}, mpi.ClassControl)
			master.BcastBytes(0, desc.Encode(), mpi.ClassTraversal)
			master.Barrier(mpi.ClassControl)
			return false
		},
		"an opScoreInsertions since": func(master *mpi.Comm) bool {
			master.BcastBytes(0, []byte{opScoreInsertions}, mpi.ClassControl)
			master.BcastBytes(0, ins.Encode(), mpi.ClassTraversal)
			master.Reduce(0, make([]float64, 2*ins.NCandidates()), mpi.OpSum, mpi.ClassLikelihoodEval)
			return false
		},
		"a one-edge plan of edge 1 since": func(master *mpi.Comm) bool {
			master.BcastBytes(0, []byte{opAllBranchDerivs}, mpi.ClassControl)
			master.BcastBytes(0, otherEdge.Encode(), mpi.ClassTraversal)
			master.Reduce(0, make([]float64, 2*2), mpi.OpSum, mpi.ClassBranchLength)
			return false
		},
		"a parameter frame moving α since": func(master *mpi.Comm) bool {
			master.BcastBytes(0, []byte{opSetShared}, mpi.ClassControl)
			master.Bcast(0, alpha2, mpi.ClassModelParams)
			return false
		},
		"pre-order steps in the Reuse plan": func(*mpi.Comm) bool { return true },
	}
	for what, between := range since {
		t.Run(what, func(t *testing.T) {
			master, done := startWorker(t, model.Gamma)
			master.BcastBytes(0, []byte{opTraverse}, mpi.ClassControl)
			master.BcastBytes(0, desc.Encode(), mpi.ClassTraversal)
			master.Barrier(mpi.ClassControl)
			contract := full()
			master.BcastBytes(0, []byte{opAllBranchDerivs}, mpi.ClassControl)
			master.BcastBytes(0, contract.Encode(), mpi.ClassTraversal)
			master.Reduce(0, make([]float64, 2*2*nB), mpi.OpSum, mpi.ClassBranchLength)
			reuse := full()
			reuse.Reuse = true
			if !between(master) {
				reuse.Pre[0] = nil
			}
			master.BcastBytes(0, []byte{opAllBranchDerivs}, mpi.ClassControl)
			master.BcastBytes(0, reuse.Encode(), mpi.ClassTraversal)
			refusedNaming(t, done, "opAllBranchDerivs")
		})
	}

	// One branch's Newton loop: the traversal rooted on its edge, a
	// contracting one-edge plan, then a Reuse plan of the same edge after
	// another traversal, which left the table stale.
	t.Run("one-edge Reuse after an opTraverse", func(t *testing.T) {
		edgeDesc := traversal.Build(tr, tr.Tip(1), true)
		var one traversal.GradPlan
		one.SetEdge(edgeDesc)
		edgeDesc.T = append(edgeDesc.T, edgeDesc.T[0])
		edgeDesc.Steps = append(edgeDesc.Steps, edgeDesc.Steps[0])
		master, done := startWorker(t, model.Gamma)
		for _, plan := range []*traversal.GradPlan{&one, nil} {
			master.BcastBytes(0, []byte{opTraverse}, mpi.ClassControl)
			master.BcastBytes(0, edgeDesc.Encode(), mpi.ClassTraversal)
			master.Barrier(mpi.ClassControl)
			if plan != nil {
				master.BcastBytes(0, []byte{opAllBranchDerivs}, mpi.ClassControl)
				master.BcastBytes(0, plan.Encode(), mpi.ClassTraversal)
				master.Reduce(0, make([]float64, 2*2), mpi.OpSum, mpi.ClassBranchLength)
			}
		}
		one.Reuse = true
		master.BcastBytes(0, []byte{opAllBranchDerivs}, mpi.ClassControl)
		master.BcastBytes(0, one.Encode(), mpi.ClassTraversal)
		refusedNaming(t, done, "opAllBranchDerivs")
	})
}

// allDirty is a dirty-slot overlay of t with every slot dirty: an
// insertion plan built over it schedules every post-order step.
func allDirty(t *tree.Tree) []bool {
	dirty := make([]bool, t.NInner())
	for i := range dirty {
		dirty[i] = true
	}
	return dirty
}
