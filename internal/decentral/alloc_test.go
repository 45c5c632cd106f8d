package decentral

import (
	"math/rand"
	"testing"

	"repro/internal/distrib"
	"repro/internal/enginecore"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/traversal"
	"repro/internal/tree"
)

// TestEngineSteadyStateAllocFree pins the allocation-free hot path: once
// warm (P-matrix cache populated, program arenas grown), a cycle of the
// engine calls the search makes — Evaluate, one branch's Traverse and
// one-edge plans (contracting, then Reuse), the all-edge plan and an
// insertion plan — must not allocate at all
// on a single rank, serial or with a worker pool: staging a call, the one
// dispatch and the join allocate nothing. Multi-rank messaging allocates
// by design (channel payload copies), so the contract is pinned where it
// matters most: the per-call kernel and engine layers.
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
				for _, threads := range []int{1, 2} {
					testSteadyStateAllocFree(t, het, threads, makeDataset(t, 8, tc.nParts, tc.geneLen, 3), tc.batched)
				}
			})
		}
	}
}

func testSteadyStateAllocFree(t *testing.T, het model.Heterogeneity, threads int, d *msa.Dataset, oneBlock bool) {
	counts := make([]int, d.NPartitions())
	for i, p := range d.Parts {
		counts[i] = p.NPatterns()
	}
	assign, err := distrib.Compute(distrib.Cyclic, counts, 1)
	if err != nil {
		t.Fatal(err)
	}
	world := mpi.NewWorld(1)
	eng, err := NewEngine(world.Comm(0), d, assign, enginecore.Config{Het: het, Subst: model.GTR, Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if nb := eng.local.Kernels[0].NBlocks(); (nb == 1) != oneBlock {
		t.Fatalf("%d patterns in partition 0 are %d blocks, want one block: %v", counts[0], nb, oneBlock)
	}

	tr := tree.NewRandom(d.Names, 1, rand.New(rand.NewSource(5)))
	edge := tr.Tip(0)
	desc := traversal.Build(tr, edge, true)
	var one, oneReuse traversal.GradPlan
	one.SetEdge(desc)
	oneReuse.SetEdge(desc)
	oneReuse.Reuse, oneReuse.T[0][0] = true, 0.1
	plan, _ := traversal.BuildGradient(tr, nil)
	// One SPR prune point's insertion plan, built on a clone so the
	// descriptors above keep describing tr.
	pruned := tr.Clone()
	ps, err := pruned.Prune(pruned.Tip(0).Back.Next)
	if err != nil {
		t.Fatal(err)
	}
	var ins traversal.InsertPlan
	dirty := make([]bool, pruned.NInner())
	for i := range dirty {
		dirty[i] = true
	}
	ins.Build(pruned, ps, ps.CandidateEdges(1, 5), dirty)

	// Warm-up: populate the P-matrix cache at the exact branch
	// lengths the measured loop uses and grow every scratch arena.
	for i := 0; i < 2; i++ {
		eng.Evaluate(desc)
		eng.Traverse(desc)
		eng.AllBranchDerivatives(&one)
		eng.AllBranchDerivatives(&oneReuse)
		eng.AllBranchDerivatives(plan)
		eng.ScoreInsertions(&ins)
	}

	if allocs := testing.AllocsPerRun(50, func() {
		eng.Evaluate(desc)
		eng.Traverse(desc)
		eng.AllBranchDerivatives(&one)
		eng.AllBranchDerivatives(&oneReuse)
		eng.AllBranchDerivatives(plan)
		eng.ScoreInsertions(&ins)
	}); allocs != 0 {
		t.Errorf("%v T=%d: steady-state engine cycle allocates %.1f times per run", het, threads, allocs)
	}
}
