package decentral

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/distrib"
	"repro/internal/enginecore"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/search"
	"repro/internal/traversal"
	"repro/internal/tree"
)

// TestEngineSteadyStateAllocFree pins the allocation-free hot path: once
// warm (P-matrix store grown, program arenas grown), a cycle of the
// engine calls the search makes — Evaluate, one branch's Traverse and
// one-edge plans (contracting, then Reuse), the all-edge plan, an
// insertion plan and, under PSR, a site-rate resolution — must not
// allocate at all, on one rank and on each rank of a 2-rank in-process
// world, serial or with a worker pool. Every cycle moves every branch
// length and the shared parameters to values no earlier cycle used, so
// the P-matrix store misses and recycles, and the descriptors and plans
// are rebuilt into their own storage: staging a call, the dispatch, the
// join, the collectives and the model updates allocate nothing.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	datasets := []struct {
		name            string
		nParts, geneLen int
		batched         bool
	}{
		// Two 60-pattern partitions are two one-item programs in one
		// dispatch (the shape a separate batched path used to serve, whence
		// the names); one partition of several pattern blocks is one
		// kernel's program over several items.
		{"batched", 2, 60, true},
		{"unbatched", 1, 900, false},
	}
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		for _, tc := range datasets {
			t.Run(het.String()+"/"+tc.name, func(t *testing.T) {
				for _, ranks := range []int{1, 2} {
					for _, threads := range []int{1, 2} {
						testSteadyStateAllocFree(t, het, ranks, threads, makeDataset(t, 8, tc.nParts, tc.geneLen, 3), tc.batched)
					}
				}
			})
		}
	}
}

// allocCycler is one rank's side of the steady-state cycle: its engine,
// its copy of the tree, a pruned copy for the insertion plan, and the
// descriptors and plans it rebuilds every cycle.
type allocCycler struct {
	eng            *Engine
	het            model.Heterogeneity
	tr, pruned     *tree.Tree
	edges, pEdges  []*tree.Node
	base, pBase    []float64
	ps             *tree.PrunedSubtree
	cands          []*tree.Node
	dirty          []bool
	desc           traversal.Descriptor
	one, oneReuse  traversal.GradPlan
	plan           traversal.GradPlan
	nodes          []*tree.Node
	ins            traversal.InsertPlan
	shared         [][]float64
	calls, lnlBits uint64
}

func newAllocCycler(t *testing.T, eng *Engine, het model.Heterogeneity, names []string) *allocCycler {
	c := &allocCycler{eng: eng, het: het, tr: tree.NewRandom(names, 1, rand.New(rand.NewSource(5)))}
	// The insertion plan is built on a pruned clone, so the descriptors
	// keep describing tr.
	c.pruned = c.tr.Clone()
	ps, err := c.pruned.Prune(c.pruned.Tip(0).Back.Next)
	if err != nil {
		t.Fatal(err)
	}
	c.ps = ps
	c.edges, c.pEdges = c.tr.Edges(), c.pruned.Edges()
	for _, e := range c.edges {
		c.base = append(c.base, e.Length(0))
	}
	for _, e := range c.pEdges {
		c.pBase = append(c.pBase, e.Length(0))
	}
	c.dirty = make([]bool, c.pruned.NInner())
	c.shared = make([][]float64, eng.NPartitions())
	for p := range c.shared {
		c.shared[p] = make([]float64, model.SharedLen)
	}
	return c
}

// cycle runs cycle i: new branch lengths and shared parameters, the
// rebuilt descriptors and plans, then the engine calls.
func (c *allocCycler) cycle(i int) {
	f := 1 + 1e-3*float64(i)
	for j, e := range c.edges {
		e.SetLength(0, c.base[j]*f)
	}
	for j, e := range c.pEdges {
		e.SetLength(0, c.pBase[j]*f)
	}
	for _, row := range c.shared {
		row[model.SharedAlpha] = 0.5 * f
		for r := 0; r < model.NumRates-1; r++ {
			row[model.SharedRates+r] = 1 + 0.1*float64(r)*f
		}
		row[model.SharedRates+model.NumRates-1] = 1
	}
	c.eng.SetShared(c.shared)
	c.desc.Build(c.tr, c.tr.Tip(0), true)
	c.one.SetEdge(&c.desc)
	c.oneReuse.SetEdge(&c.desc)
	c.oneReuse.Reuse, c.oneReuse.T[0][0] = true, 0.1*f
	c.nodes = c.plan.Build(c.tr, nil, c.nodes)
	for j := range c.dirty {
		c.dirty[j] = true
	}
	c.cands = c.ps.AppendCandidateEdges(c.cands[:0], 1, 5)
	c.ins.Build(c.pruned, c.ps, c.cands, c.dirty)

	lnl := c.eng.Evaluate(&c.desc)
	c.lnlBits ^= math.Float64bits(lnl[0])
	c.eng.Traverse(&c.desc)
	c.eng.AllBranchDerivatives(&c.one)
	c.eng.AllBranchDerivatives(&c.oneReuse)
	c.eng.AllBranchDerivatives(&c.plan)
	c.eng.ScoreInsertions(&c.ins)
	if c.het == model.PSR {
		c.eng.OptimizeSiteRates(&c.desc)
	}
	c.calls++
}

func testSteadyStateAllocFree(t *testing.T, het model.Heterogeneity, ranks, threads int, d *msa.Dataset, oneBlock bool) {
	counts := make([]int, d.NPartitions())
	for i, p := range d.Parts {
		counts[i] = p.NPatterns()
	}
	assign, err := distrib.Compute(distrib.Cyclic, counts, ranks)
	if err != nil {
		t.Fatal(err)
	}
	world := mpi.NewWorld(ranks)
	cyclers := make([]*allocCycler, ranks)
	for r := range cyclers {
		eng, err := NewEngine(world.Comm(r), d, assign, enginecore.Config{Het: het, Subst: model.GTR, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		cyclers[r] = newAllocCycler(t, eng, het, d.Names)
	}
	if nb := cyclers[0].eng.local.Kernels[0].NBlocks(); ranks == 1 && (nb == 1) != oneBlock {
		t.Fatalf("%d patterns in partition 0 are %d blocks, want one block: %v", counts[0], nb, oneBlock)
	}

	// Rank 0 runs the cycles under AllocsPerRun — one warm-up call, then
	// runs calls — after warm cycles that grow every buffer; every other
	// rank runs the same cycles beside it.
	const warm, runs = 4, 30
	done := make(chan struct{})
	for _, c := range cyclers[1:] {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range warm + 1 + runs {
				c.cycle(i)
			}
		}()
	}
	c0 := cyclers[0]
	for i := range warm {
		c0.cycle(i)
	}
	allocs := testing.AllocsPerRun(runs, func() { c0.cycle(int(c0.calls)) })
	for range cyclers[1:] {
		<-done
	}
	if allocs != 0 {
		t.Errorf("%v, %d ranks, T=%d: steady-state engine cycle allocates %.1f times per run", het, ranks, threads, allocs)
	}
	for _, c := range cyclers[1:] {
		if c.calls != c0.calls || c.lnlBits != c0.lnlBits {
			t.Errorf("%v, %d ranks: rank cycles disagree (%d and %d cycles)", het, ranks, c.calls, c0.calls)
		}
	}
}

// searchAllocBound is what a whole search may allocate after its first
// iteration, in bytes. Under Γ that is the branch records kept SPR moves
// leave to the tree, a few kilobytes. Under PSR the working set still
// grows with the site-rate category count after the first iteration —
// the program arena's tip tables and the P-matrix store's chunks are
// sized by it — which takes some hundreds of kilobytes on the -M shape.
// The figures measured on the test's shapes are in CHANGES.md. Γ's bound
// is what a per-collective or per-miss allocation breaks: one per
// collective alone is tens of kilobytes here.
func searchAllocBound(het model.Heterogeneity) uint64 {
	if het == model.PSR {
		return 2 << 20
	}
	return 16 << 10
}

// TestSearchAllocationAfterFirstIteration runs whole searches on a
// 2-rank in-process world, Γ and PSR, joint and per-partition branch
// lengths, and holds the bytes allocated from the end of the first
// iteration to the end of the last under searchAllocBound.
func TestSearchAllocationAfterFirstIteration(t *testing.T) {
	d := makeDataset(t, 10, 3, 80, 4)
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		for _, perPart := range []bool{false, true} {
			var mu sync.Mutex
			var first, last uint64
			iters := 0
			onIter := func(_ *search.Searcher, it int, _ float64) {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				mu.Lock()
				defer mu.Unlock()
				if it == 1 && (first == 0 || ms.TotalAlloc < first) {
					first = ms.TotalAlloc
				}
				last = max(last, ms.TotalAlloc)
				iters = max(iters, it)
			}
			_, _, err := Run(d, enginecore.RunConfig{
				Search: search.Config{Het: het, PerPartitionBranches: perPart, Seed: 7, MaxIterations: 6, Epsilon: -1, OnIteration: onIter},
				Ranks:  2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if iters < 3 {
				t.Fatalf("%v -M=%v: the search ran %d iterations, want at least 3", het, perPart, iters)
			}
			t.Logf("%v -M=%v: %d bytes allocated over iterations 2–%d", het, perPart, last-first, iters)
			if bound := searchAllocBound(het); last-first > bound {
				t.Errorf("%v -M=%v: %d bytes allocated over iterations 2–%d, bound %d", het, perPart, last-first, iters, bound)
			}
		}
	}
}
