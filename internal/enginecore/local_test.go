package enginecore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/distrib"
	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/msa"
	"repro/internal/seqgen"
	"repro/internal/telemetry"
	"repro/internal/traversal"
	"repro/internal/tree"
)

func makeLocal(t *testing.T, nTaxa, nParts, geneLen int, het model.Heterogeneity, perPart bool, ranks, rank int) (*Local, *msa.Dataset) {
	t.Helper()
	res, err := seqgen.Generate(seqgen.PartitionedGenes(nTaxa, nParts, geneLen, 11))
	if err != nil {
		t.Fatal(err)
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, d.NPartitions())
	for i, p := range d.Parts {
		counts[i] = p.NPatterns()
	}
	assign, err := distrib.Compute(distrib.Cyclic, counts, ranks)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLocal(d, assign, rank, Config{Het: het, Subst: model.GTR, PerPartitionBranches: perPart})
	if err != nil {
		t.Fatal(err)
	}
	return l, d
}

func TestLocalClassMapping(t *testing.T) {
	joint, _ := makeLocal(t, 8, 3, 40, model.Gamma, false, 2, 0)
	if joint.BLClasses() != 1 || joint.ClassOf(2) != 0 {
		t.Error("joint class mapping wrong")
	}
	per, _ := makeLocal(t, 8, 3, 40, model.Gamma, true, 2, 0)
	if per.BLClasses() != 3 || per.ClassOf(2) != 2 {
		t.Error("per-partition class mapping wrong")
	}
}

func TestLocalSharesPartitionCoverage(t *testing.T) {
	const ranks = 3
	seen := map[int]int{} // partition → total patterns over ranks
	var total int
	for r := 0; r < ranks; r++ {
		l, d := makeLocal(t, 8, 4, 50, model.Gamma, false, ranks, r)
		for i, k := range l.Kernels {
			seen[l.PartIdx[i]] += k.NPatterns()
		}
		total = d.TotalPatterns()
	}
	sum := 0
	for _, n := range seen {
		sum += n
	}
	if sum != total {
		t.Fatalf("ranks jointly hold %d patterns, dataset has %d", sum, total)
	}
}

// randomCellStats draws cell statistics for nPart partitions the way a
// reduction delivers them: a weight wherever there is a rate sum.
func randomCellStats(nPart int) []float64 {
	rng := rand.New(rand.NewSource(3))
	stats := make([]float64, SiteRateCells(nPart))
	for i := range stats {
		if rng.Intn(3) > 0 {
			stats[i] = rng.Float64() * 10
		}
	}
	// Make weights consistent: second half of each partition block holds
	// weights; ensure weight>0 wherever rate-sum>0.
	const cells = model.MaxPSRCategories
	for p := 0; p < nPart; p++ {
		base := 2 * cells * p
		for c := 0; c < cells; c++ {
			if stats[base+c] > 0 && stats[base+cells+c] == 0 {
				stats[base+cells+c] = 1
			}
			if stats[base+c] == 0 {
				stats[base+cells+c] = 0
			}
		}
	}
	return stats
}

func TestSiteRateResolutionRoundTrip(t *testing.T) {
	const nPart, cells = 4, model.MaxPSRCategories
	stats := randomCellStats(nPart)
	for _, perPart := range []bool{false, true} {
		res := ResolveSiteRates(stats, nPart, perPart)
		enc := res.Encode()
		back, err := DecodeSiteRateResolution(enc, nPart, perPart)
		if err != nil {
			t.Fatal(err)
		}
		// Any other length is a frame Encode did not write.
		for _, bad := range [][]float64{nil, enc[:1], enc[:len(enc)/2], enc[:len(enc)-1], append(enc[:len(enc):len(enc)], 1)} {
			if _, err := DecodeSiteRateResolution(bad, nPart, perPart); err == nil {
				t.Errorf("perPart=%v: a %d-value frame decoded (the resolution has %d)", perPart, len(bad), len(enc))
			}
		}
		if len(back.CatRates) != nPart || len(back.CellToCat) != nPart {
			t.Fatal("shape lost")
		}
		for p := 0; p < nPart; p++ {
			if len(back.CatRates[p]) != len(res.CatRates[p]) {
				t.Fatalf("partition %d: %d cats vs %d", p, len(back.CatRates[p]), len(res.CatRates[p]))
			}
			for c := range res.CatRates[p] {
				if math.Float64bits(back.CatRates[p][c]) != math.Float64bits(res.CatRates[p][c]) {
					t.Fatal("cat rate changed")
				}
			}
			for c := range res.CellToCat[p] {
				if back.CellToCat[p][c] != res.CellToCat[p][c] {
					t.Fatal("cell map changed")
				}
			}
		}
		if len(back.Scale) != len(res.Scale) {
			t.Fatal("scale length changed")
		}
		for i := range res.Scale {
			if back.Scale[i] != res.Scale[i] {
				t.Fatal("scale changed")
			}
			if !(res.Scale[i] > 0) {
				t.Fatal("non-positive scale")
			}
		}
		// A count, a cell's category, a category rate or a scale that
		// Encode cannot have written is refused, whatever a float-to-int
		// conversion would have made of it on this platform.
		first, firstCell, scale := 0, 1+len(res.CatRates[0]), len(enc)-1
		for _, c := range []struct {
			what string
			pos  int
			vals []float64
		}{
			{"category count", first, []float64{2.7, -1, cells + 1, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}},
			{"cell category", firstCell, []float64{0.5, -1.5, -2, float64(len(res.CatRates[0])), math.NaN(), math.Inf(-1), math.Copysign(0, -1)}},
			{"category rate", first + 1, []float64{0, -1, math.NaN(), math.Inf(1)}},
			{"scale", scale, []float64{0, -2, math.NaN(), math.Inf(1)}},
		} {
			for _, v := range c.vals {
				bad := append([]float64(nil), enc...)
				bad[c.pos] = v
				if _, err := DecodeSiteRateResolution(bad, nPart, perPart); err == nil {
					t.Errorf("perPart=%v: a frame with %s %v decoded", perPart, c.what, v)
				}
			}
		}
	}
}

func TestResolveSiteRatesEmptyPartitions(t *testing.T) {
	// All-empty stats must not produce NaNs or zero scales.
	stats := make([]float64, SiteRateCells(2))
	res := ResolveSiteRates(stats, 2, true)
	for _, s := range res.Scale {
		if s != 1 {
			t.Fatalf("scale = %v, want 1 for empty stats", res.Scale)
		}
	}
	if len(res.CatRates[0]) != 0 {
		t.Fatal("categories invented for empty stats")
	}
}

// shapes are the three ways a rank's patterns can be cut into kernels that
// the execution of an engine call must not care about: one kernel of
// several pattern blocks, twenty kernels of one block each, and both
// kinds side by side.
var shapes = []struct {
	name  string
	sites []int
}{
	{"large", []int{1100}},
	{"small20", []int{70, 60, 80, 70, 50, 90, 70, 60, 80, 70, 70, 60, 80, 70, 50, 90, 70, 60, 80, 70}},
	{"mixed", []int{1100, 70}},
}

// shapedData is 12 taxa × the given partition lengths with the tree it
// was simulated on.
func shapedData(t testing.TB, sites []int) (*msa.Dataset, *tree.Tree) {
	t.Helper()
	cfg := seqgen.Config{NTaxa: 12, Seed: 19}
	for i, n := range sites {
		cfg.Specs = append(cfg.Specs, seqgen.Spec{Name: fmt.Sprintf("p%d", i), NSites: n, Alpha: 0.7 + 0.05*float64(i%9), GapProb: 0.02})
	}
	res, err := seqgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	return d, res.Tree
}

// mixedData is 12 taxa × {1100, 70} bp with the tree it was simulated
// on: on one rank, a kernel of several pattern blocks and a kernel of
// one.
func mixedData(t testing.TB) (*msa.Dataset, *tree.Tree) {
	t.Helper()
	return shapedData(t, shapes[2].sites)
}

// mixedRank builds rank's Local of a cyclic split of d over ranks, and
// returns with it the rank's shares: which patterns of which partition
// each local kernel holds.
func mixedRank(t testing.TB, d *msa.Dataset, het model.Heterogeneity, threads, ranks, rank int) (*Local, []distrib.Share) {
	t.Helper()
	counts := make([]int, d.NPartitions())
	for i, p := range d.Parts {
		counts[i] = p.NPatterns()
	}
	assign, err := distrib.Compute(distrib.Cyclic, counts, ranks)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLocal(d, assign, rank, Config{Het: het, Subst: model.GTR, Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return l, assign.PerRank[rank]
}

// mixedLocal is mixedData on one rank, with a random tree over its taxa.
func mixedLocal(t *testing.T, het model.Heterogeneity, threads int) (*Local, *tree.Tree) {
	t.Helper()
	d, _ := mixedData(t)
	l, _ := mixedRank(t, d, het, threads, 1, 0)
	if l.Kernels[0].NBlocks() < 3 || l.Kernels[1].NBlocks() != 1 {
		t.Fatalf("want a kernel of at least 3 blocks and one of 1; got %d and %d", l.Kernels[0].NBlocks(), l.Kernels[1].NBlocks())
	}
	return l, tree.NewRandom(d.Names, 1, rand.New(rand.NewSource(8)))
}

// TestEvaluateSkipsMaskedPartitions: a partition the descriptor masks out
// costs nothing and keeps everything — its kernel's CLVs are not touched
// (here: still never computed), its result slot is 0 — while the others
// return the bits an unmasked evaluation returns, for a kernel of many
// blocks and for one of a single block alike.
func TestEvaluateSkipsMaskedPartitions(t *testing.T) {
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		for _, threads := range []int{1, 2} {
			full, tr := mixedLocal(t, het, threads)
			d := traversal.Build(tr, tr.Tip(0), true)
			want := append([]float64(nil), full.EvaluateLocal(d)...)
			for masked := 0; masked < 2; masked++ {
				l, _ := mixedLocal(t, het, threads)
				md := *d
				md.Active = []bool{masked != 0, masked != 1}
				got := l.EvaluateLocal(&md)
				for p := range got {
					if p == masked {
						if got[p] != 0 {
							t.Errorf("%v T=%d: masked partition %d returned %v", het, threads, p, got[p])
						}
					} else if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
						t.Errorf("%v T=%d: partition %d = %.17g beside a masked one, %.17g unmasked", het, threads, p, got[p], want[p])
					}
				}
				for ki, k := range l.Kernels {
					for slot := 0; slot < l.NInner; slot++ {
						computed := k.CLVDigest(slot) != 0
						if computed == (l.PartIdx[ki] == masked) {
							t.Fatalf("%v T=%d: partition %d masked, kernel %d slot %d computed: %v", het, threads, masked, ki, slot, computed)
						}
					}
				}
			}
		}
	}
}

// TestAdmitDerivativesChecksActiveSlotsOnly: a Reuse frame reads the sum
// table of every (edge, class) slot its mask has on, on every kernel of
// that class. One slot left stale on one partition — a later contracting
// plan masked it off, and its pre-order pass moved the kernel's stamp —
// refuses the frame; masking that slot off admits it. So for one
// branch's one-edge plans.
func TestAdmitDerivativesChecksActiveSlotsOnly(t *testing.T) {
	l, d := makeLocal(t, 8, 2, 60, model.PSR, true, 1, 0)
	tr := tree.NewRandom(d.Names, 2, rand.New(rand.NewSource(3)))
	l.Traverse(traversal.Build(tr, tr.Tip(0), true))
	plan, _ := traversal.BuildGradient(tr, nil)
	nB := plan.NBranches()
	l.AllBranchDerivativesPerPartition(plan)
	stale := 1*nB + 3
	mask := make([]bool, 2*nB)
	for i := range mask {
		mask[i] = i != stale
	}
	plan.Active = mask
	l.AllBranchDerivativesPerPartition(plan)

	reuse := &traversal.GradPlan{Pre: make([][]likelihood.Step, 2), Edges: plan.Edges, T: plan.T, Reuse: true}
	for what, active := range map[string][]bool{"no mask": nil, "every slot": make([]bool, 2*nB)} {
		if active != nil {
			for i := range active {
				active[i] = true
			}
		}
		reuse.Active = active
		if err := l.AdmitDerivatives(reuse); err == nil {
			t.Errorf("%s: a Reuse frame admitted with partition 1's edge 3 stale", what)
		}
	}
	reuse.Active = mask
	if err := l.AdmitDerivatives(reuse); err != nil {
		t.Errorf("a Reuse frame that masks the stale slot off refused: %v", err)
	}

	// One branch's Newton loop, the traversal rooted on its edge and then
	// a one-edge plan, with partition 1 converged at once: its slot 0
	// still holds the all-edge plan's edge 0, from before the traversal.
	desc := traversal.Build(tr, tr.Tip(1), false)
	l.Traverse(desc)
	var edge traversal.GradPlan
	edge.SetEdge(desc)
	edge.Active = []bool{true, false}
	if got := l.AllBranchDerivativesPerPartition(&edge); got[1] != 0 || got[3] != 0 || got[0] == 0 {
		t.Errorf("one-edge plan with partition 1 masked off: %v, want partition 1's slots zero", got)
	}
	edge.Reuse = true
	if err := l.AdmitDerivatives(&edge); err != nil {
		t.Errorf("a one-edge Reuse frame that masks partition 1 off refused: %v", err)
	}
	edge.Active = nil
	if err := l.AdmitDerivatives(&edge); err == nil {
		t.Error("a one-edge Reuse frame admitted with partition 1's slot 0 stale")
	}
}

// TestByClassFoldsKernelsInOrder: the per-class derivative sums both
// engines reduce are each kernel's Gradient results added per class in
// kernel order from +0, bit for bit — the order the per-class fold of a
// rank's kernels had before the per-partition vector served both schemes
// (docs/DETERMINISM.md §1). ByClass folds partitions in partition order,
// and a rank's kernels are in partition order, one per partition; folding
// them in any other order moves bits of the joint classes. Joint and -M
// branch lengths, four partitions on one rank and on each of two ranks
// that split one, one edge and every edge of a gradient plan with every
// third (edge, class) slot masked off.
func TestByClassFoldsKernelsInOrder(t *testing.T) {
	d, _ := shapedData(t, []int{300, 200, 260, 150})
	counts := make([]int, d.NPartitions())
	for i, p := range d.Parts {
		counts[i] = p.NPatterns()
	}
	for _, ranks := range []int{1, 2} {
		assign, err := distrib.Compute(distrib.Cyclic, counts, ranks)
		if err != nil {
			t.Fatal(err)
		}
		if _, split := assign.Layout(); ranks > 1 && split == 0 {
			t.Fatalf("%d ranks split no partition", ranks)
		}
		for _, perPart := range []bool{false, true} {
			for rank := 0; rank < ranks; rank++ {
				l, err := NewLocal(d, assign, rank, Config{Het: model.Gamma, Subst: model.GTR, PerPartitionBranches: perPart})
				if err != nil {
					t.Fatal(err)
				}
				if ranks == 1 && len(l.Kernels) < 3 {
					t.Fatalf("one rank holds %d partitions, want at least 3", len(l.Kernels))
				}
				label := fmt.Sprintf("ranks=%d rank=%d -M=%v", ranks, rank, perPart)
				checkClassFold(t, label, l, tree.NewRandom(d.Names, l.BLClasses(), rand.New(rand.NewSource(5))))
				l.Close()
			}
		}
	}
}

// checkClassFold holds ByClass of l's one-edge and all-edge derivative
// vectors against the per-class sums of its kernels' results.
func checkClassFold(t *testing.T, label string, l *Local, tr *tree.Tree) {
	t.Helper()
	classes := l.BLClasses()
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s %s: value %d folds to %x, the kernels' sum in kernel order is %x", label, what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	desc := traversal.Build(tr, tr.Tip(0), true)
	l.Traverse(desc)
	var edge traversal.GradPlan
	edge.SetEdge(desc)
	for c := range edge.T {
		edge.T[c][0] = 0.05 + 0.03*float64(c)
	}
	got := l.ByClass(l.AllBranchDerivativesPerPartition(&edge), 1)
	want := make([]float64, 2*classes)
	for i, k := range l.Kernels {
		c := l.ClassOf(l.PartIdx[i])
		d1, d2 := k.Gradient(0)
		want[c] += d1
		want[classes+c] += d2
	}
	same("one edge", got, want)

	plan, _ := traversal.BuildGradient(tr, nil)
	nB := plan.NBranches()
	plan.Active = make([]bool, classes*nB)
	for i := range plan.Active {
		plan.Active[i] = i%3 != 1
	}
	got = l.ByClass(l.AllBranchDerivativesPerPartition(plan), nB)
	want = make([]float64, 2*classes*nB)
	for i, k := range l.Kernels {
		c := l.ClassOf(l.PartIdx[i])
		r := 0
		for b := 0; b < nB; b++ {
			if !plan.Active[c*nB+b] {
				continue
			}
			d1, d2 := k.Gradient(r)
			want[c*nB+b] += d1
			want[classes*nB+c*nB+b] += d2
			r++
		}
	}
	same("every edge", got, want)
}

// localTrace drives every Local operation once over tr and returns every
// output bit: CLV digests after the traversal, per-partition log
// likelihoods, the one-edge and the all-branch gradient (each contracted,
// then reused at other lengths), one prune point's insertion scores and,
// under PSR, the optimized site rates with their cell statistics.
func localTrace(t *testing.T, l *Local, tr *tree.Tree) []uint64 {
	t.Helper()
	var out []uint64
	bits := func(vs []float64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	d := traversal.Build(tr, tr.Tip(0), true)
	l.Traverse(d)
	for _, k := range l.Kernels {
		for slot := 0; slot < l.NInner; slot++ {
			out = append(out, k.CLVDigest(slot))
		}
	}
	bits(l.EvaluateLocal(d))
	var edge traversal.GradPlan
	edge.SetEdge(d)
	edge.T[0][0] = 0.07
	bits(l.ByClass(l.AllBranchDerivativesPerPartition(&edge), 1))
	edge.Reuse = true
	edge.T[0][0] = 0.3
	bits(l.AllBranchDerivativesPerPartition(&edge))

	plan, _ := traversal.BuildGradient(tr, nil)
	bits(l.ByClass(l.AllBranchDerivativesPerPartition(plan), plan.NBranches()))
	plan.Reuse = true
	for b := range plan.T[0] {
		plan.T[0][b] *= 1.5
	}
	bits(l.ByClass(l.AllBranchDerivativesPerPartition(plan), plan.NBranches()))
	bits(l.AllBranchDerivativesPerPartition(plan))

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
	bits(l.ScoreInsertionsLocal(&ins))

	if l.Het == model.PSR {
		bits(l.OptimizeSiteRatesLocal(d))
		for _, k := range l.Kernels {
			bits(k.Params().SiteRates)
		}
	}
	return out
}

// executeOpMajor makes l run its kernels' programs the other way round,
// on the calling goroutine: per kernel, every block of the first staged
// operation, then every block of the second, … — one operation at a time
// over the whole pattern range, the order everything ran in before an
// engine call became a program. The oracle of TestBatchingChangesNoBit.
func executeOpMajor(l *Local) {
	l.execute = func() {
		for _, k := range l.Kernels {
			for op := 0; op < k.Staged(); op++ {
				for blk := 0; blk < k.NBlocks(); blk++ {
					k.RunOp(op, blk)
				}
			}
		}
	}
}

// TestBatchingChangesNoBit: an engine call executes as ONE dispatch over
// the (kernel, block) items of all local kernels, each item running its
// kernel's whole program over one block, and the caller folds the
// kernels' results in kernel order — and every Local operation returns
// the bits it returns when each kernel's program is executed op-major on
// one goroutine (docs/DETERMINISM.md §8): for a rank that holds one
// kernel of several blocks, twenty kernels of one block, or both; for
// both rate models; without a pool and with 1, 2, 3 and 4 threads. What
// used to be a separate fused path for small partitions is the same
// path: a one-block kernel is a one-item program.
func TestBatchingChangesNoBit(t *testing.T) {
	for _, shape := range shapes {
		d, _ := shapedData(t, shape.sites)
		tr := tree.NewRandom(d.Names, 1, rand.New(rand.NewSource(8)))
		for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
			oracle, _ := mixedRank(t, d, het, 0, 1, 0)
			executeOpMajor(oracle)
			want := localTrace(t, oracle, tr)
			for _, threads := range []int{0, 1, 2, 3, 4} {
				l, _ := mixedRank(t, d, het, threads, 1, 0)
				got := localTrace(t, l, tr)
				if len(got) != len(want) {
					t.Fatalf("%s %v T=%d: %d outputs block-major, %d op-major", shape.name, het, threads, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s %v T=%d: output %d: block-major %x, op-major %x", shape.name, het, threads, i, got[i], want[i])
					}
				}
				ps := l.pool.Stats()
				if l.counts[telemetry.RankEngineCalls] != oracle.counts[telemetry.RankEngineCalls] || ps.Dispatches > l.counts[telemetry.RankEngineCalls] {
					t.Errorf("%s %v T=%d: %d engine calls (oracle %d) made %d pool dispatches, want at most one each", shape.name, het, threads, l.counts[telemetry.RankEngineCalls], oracle.counts[telemetry.RankEngineCalls], ps.Dispatches)
				}
				if threads > 1 && ps.Dispatches == 0 {
					t.Errorf("%s %v T=%d: no engine call reached the pool", shape.name, het, threads)
				}
			}
		}
	}
}

// TestProbeAllocatesNothing: a model-parameter probe — new shared
// parameters, then a forced traversal and evaluation — misses the
// P-matrix store on every branch length of the tree. The store recycles
// the sets the reset freed, the tip tables come from the program's arena,
// the call is one dispatch and decoding the parameters re-derives the
// eigensystem and the Γ category rates in place, so a probe whose
// parameters changed allocates nothing, on a serial rank and on a
// threaded one.
func TestProbeAllocatesNothing(t *testing.T) {
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		for _, threads := range []int{1, 2} {
			l, tr := mixedLocal(t, het, threads)
			for i, e := range tr.Edges() {
				e.SetLength(0, 0.02+0.013*float64(i))
			}
			d := traversal.Build(tr, tr.Tip(0), true)
			params := make([][][]float64, 2)
			for v := range params {
				params[v] = make([][]float64, l.NPart)
				for p := range params[v] {
					shared := l.Kernels[p].Params().EncodeShared()
					shared[model.SharedAlpha] *= 1 + 0.1*float64(v+1)
					shared[model.SharedRates] *= 1 + 0.2*float64(v+1)
					params[v][p] = shared
				}
			}
			n := 0
			push := func() {
				n++
				if err := l.SetSharedLocal(params[n%2]); err != nil {
					t.Fatal(err)
				}
			}
			probe := func() {
				push()
				l.EvaluateLocal(d)
			}
			for warm := 0; warm < 4; warm++ {
				probe()
			}
			misses := func() (n int64) {
				for _, k := range l.Kernels {
					n += k.Counters()[telemetry.RankPCacheMisses]
				}
				return n
			}
			before := misses()
			if whole := testing.AllocsPerRun(10, probe); whole != 0 {
				t.Errorf("%v T=%d: a probe with changed parameters allocates %v times", het, threads, whole)
			}
			if perProbe := (misses() - before) / 11; perProbe < int64(len(l.Kernels)*l.NInner) {
				t.Errorf("%v T=%d: %d P-cache misses per probe: the probes did not change the parameters", het, threads, perProbe)
			}
		}
	}
}
