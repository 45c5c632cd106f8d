package search_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/decentral"
	"repro/internal/distrib"
	"repro/internal/enginecore"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/search"
	"repro/internal/seqgen"
	"repro/internal/traversal"
	"repro/internal/tree"
)

func makeDataset(t testing.TB, nTaxa, nParts, geneLen int, seed int64) *msa.Dataset {
	t.Helper()
	res, err := seqgen.Generate(seqgen.PartitionedGenes(nTaxa, nParts, geneLen, seed))
	if err != nil {
		t.Fatal(err)
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// seqEngine builds a single-rank decentral engine — the sequential ground
// truth backend for driving the Searcher directly.
func seqEngine(t testing.TB, d *msa.Dataset, het model.Heterogeneity, perPart bool) search.Engine {
	t.Helper()
	counts := make([]int, d.NPartitions())
	for i, p := range d.Parts {
		counts[i] = p.NPatterns()
	}
	assign, err := distrib.Compute(distrib.Cyclic, counts, 1)
	if err != nil {
		t.Fatal(err)
	}
	world := mpi.NewWorld(1)
	eng, err := decentral.NewEngine(world.Comm(0), d, assign, enginecore.Config{Het: het, PerPartitionBranches: perPart})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestNewSearcherValidation(t *testing.T) {
	d := makeDataset(t, 8, 2, 40, 1)
	eng := seqEngine(t, d, model.Gamma, false)

	// Bad Newick.
	if _, err := search.NewSearcher(eng, d, search.Config{StartTree: "not a tree"}); err == nil {
		t.Error("bad start tree accepted")
	}
	// Wrong taxon count.
	if _, err := search.NewSearcher(eng, d, search.Config{StartTree: "(A:1,B:1,C:1);"}); err == nil {
		t.Error("wrong-taxa start tree accepted")
	}
	// Wrong taxon names (right count).
	wrong := tree.NewComb([]string{"x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7"}, 1)
	if _, err := search.NewSearcher(eng, d, search.Config{StartTree: wrong.Newick()}); err == nil {
		t.Error("wrong-name start tree accepted")
	}
	// Valid start tree over the dataset's taxa.
	good := tree.NewComb(d.Names, 1)
	s, err := search.NewSearcher(eng, d, search.Config{StartTree: good.Newick(), MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.SameTopology(s.Tree, good) {
		t.Error("start tree not honored")
	}
}

func TestRestoreValidation(t *testing.T) {
	d := makeDataset(t, 8, 2, 40, 2)
	eng := seqEngine(t, d, model.Gamma, false)
	s, err := search.NewSearcher(eng, d, search.Config{Seed: 1, MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot(1)

	// Restore against a wrong-shape config must fail.
	eng2 := seqEngine(t, d, model.Gamma, true) // per-partition: 2 classes
	if _, err := search.NewSearcher(eng2, d, search.Config{PerPartitionBranches: true, Restore: snap}); err == nil {
		t.Error("class-count mismatch accepted on restore")
	}
	// Restore against a different dataset must fail.
	other := makeDataset(t, 9, 2, 40, 3)
	engOther := seqEngine(t, other, model.Gamma, false)
	if _, err := search.NewSearcher(engOther, other, search.Config{Restore: snap}); err == nil {
		t.Error("taxon mismatch accepted on restore")
	}
	// Partition-count mismatch.
	d3 := makeDataset(t, 8, 3, 40, 2)
	eng3 := seqEngine(t, d3, model.Gamma, false)
	if _, err := search.NewSearcher(eng3, d3, search.Config{Restore: snap}); err == nil {
		t.Error("partition-count mismatch accepted on restore")
	}
}

func TestSnapshotRoundTripThroughBytes(t *testing.T) {
	d := makeDataset(t, 10, 2, 50, 4)
	eng := seqEngine(t, d, model.Gamma, false)
	s, err := search.NewSearcher(eng, d, search.Config{Seed: 2, MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot(res.Iterations)
	rebuilt, err := snap.BuildTree()
	if err != nil {
		t.Fatal(err)
	}
	if !tree.SameTopology(rebuilt, res.Tree) {
		t.Fatal("snapshot changed topology")
	}
	if snap.Iteration != res.Iterations {
		t.Fatal("iteration lost")
	}
	if len(snap.Shared) != 2 {
		t.Fatal("shared params lost")
	}
	_ = checkpoint.FromTree(rebuilt) // exercises re-serialization of a rebuilt tree
}

func TestOnIterationHookFires(t *testing.T) {
	d := makeDataset(t, 8, 2, 40, 5)
	eng := seqEngine(t, d, model.Gamma, false)
	var iters []int
	var lnls []float64
	cfg := search.Config{
		Seed:          3,
		MaxIterations: 3,
		OnIteration: func(s *search.Searcher, iter int, lnL float64) {
			iters = append(iters, iter)
			lnls = append(lnls, lnL)
		},
	}
	s, err := search.NewSearcher(eng, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != res.Iterations {
		t.Fatalf("hook fired %d times for %d iterations", len(iters), res.Iterations)
	}
	for i := 1; i < len(iters); i++ {
		if iters[i] != iters[i-1]+1 {
			t.Fatal("iteration numbers not consecutive")
		}
		// The search never accepts a worsening move between iterations.
		if lnls[i] < lnls[i-1]-1e-6 {
			t.Fatalf("lnL regressed between iterations: %f → %f", lnls[i-1], lnls[i])
		}
	}
}

func TestSkipTopologyPreservesStartTopology(t *testing.T) {
	d := makeDataset(t, 9, 2, 60, 6)
	eng := seqEngine(t, d, model.Gamma, false)
	start := tree.NewComb(d.Names, 1)
	s, err := search.NewSearcher(eng, d, search.Config{
		StartTree:     start.Newick(),
		SkipTopology:  true,
		MaxIterations: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !tree.SameTopology(res.Tree, start) {
		t.Fatal("SkipTopology changed the topology")
	}
	// Branch lengths must have been optimized away from the default.
	defaulted := 0
	for _, e := range res.Tree.Edges() {
		if e.Length(0) == tree.DefaultBranchLength {
			defaulted++
		}
	}
	if defaulted == res.Tree.NBranches() {
		t.Fatal("no branch length was optimized")
	}
}

func TestBranchLengthsWithinBounds(t *testing.T) {
	d := makeDataset(t, 9, 2, 40, 7)
	eng := seqEngine(t, d, model.Gamma, false)
	s, err := search.NewSearcher(eng, d, search.Config{Seed: 5, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Tree.Edges() {
		l := e.Length(0)
		if l < tree.MinBranchLength || l > tree.MaxBranchLength || math.IsNaN(l) {
			t.Fatalf("branch length %g out of bounds", l)
		}
	}
}

func TestAlphaRecovery(t *testing.T) {
	// Generate strongly heterogeneous data (small α) and homogeneous data
	// (large α); the optimized shape parameters must rank accordingly.
	gen := func(alpha float64) *msa.Dataset {
		res, err := seqgen.Generate(seqgen.Config{
			NTaxa: 10,
			Specs: []seqgen.Spec{{Name: "g", NSites: 1500, Alpha: alpha}},
			Seed:  8,
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
	fit := func(d *msa.Dataset) float64 {
		eng := seqEngine(t, d, model.Gamma, false)
		s, err := search.NewSearcher(eng, d, search.Config{Seed: 4, MaxIterations: 4, SkipTopology: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Shared[0][0] // α is the first shared entry
	}
	aLow := fit(gen(0.2))
	aHigh := fit(gen(5.0))
	if !(aLow < aHigh) {
		t.Fatalf("α estimates do not rank with the truth: data α=0.2 → %g, data α=5 → %g", aLow, aHigh)
	}
}

// TestPerBranchIsAOneEdgePlan: PrepareBranch and BranchDerivatives, which
// every engine takes from search.PerBranch, return at any trial lengths
// the bits of a contracting one-edge gradient plan run after the
// descriptor's traversal.
func TestPerBranchIsAOneEdgePlan(t *testing.T) {
	d := makeDataset(t, 10, 2, 80, 6)
	for _, perPart := range []bool{false, true} {
		eng, ref := seqEngine(t, d, model.Gamma, perPart), seqEngine(t, d, model.Gamma, perPart)
		classes := eng.BLClasses()
		tr := tree.NewRandom(d.Names, classes, rand.New(rand.NewSource(7)))
		desc := traversal.Build(tr, tr.InnerRing(2), true)
		eng.PrepareBranch(desc)
		ref.Traverse(desc)
		var plan traversal.GradPlan
		plan.SetEdge(desc)
		ts := make([]float64, classes)
		for _, t0 := range []float64{0.05, 0.4} {
			for c := range ts {
				ts[c] = t0 * float64(c+1)
				plan.T[c][0] = ts[c]
			}
			d1, d2 := eng.BranchDerivatives(ts)
			want := ref.AllBranchDerivatives(&plan)
			for c := range ts {
				if math.Float64bits(d1[c]) != math.Float64bits(want[c]) || math.Float64bits(d2[c]) != math.Float64bits(want[classes+c]) {
					t.Errorf("-M=%v t=%g class %d: (%g, %g), one-edge plan (%g, %g)", perPart, ts[c], c, d1[c], d2[c], want[c], want[classes+c])
				}
			}
		}
		eng.Close()
		ref.Close()
	}
}
