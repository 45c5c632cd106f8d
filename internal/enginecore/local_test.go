package enginecore

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/distrib"
	"repro/internal/model"
	"repro/internal/msa"
	"repro/internal/seqgen"
	"repro/internal/threadpool"
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

// mixedData is 12 taxa × {1100, 70} bp with the tree it was simulated
// on: on one rank, a partition of several pattern blocks that stays on
// the worker pool and one that is fused into the small-partition batch.
func mixedData(t testing.TB) (*msa.Dataset, *tree.Tree) {
	t.Helper()
	res, err := seqgen.Generate(seqgen.Config{
		NTaxa: 12,
		Specs: []seqgen.Spec{
			{Name: "big", NSites: 1100, Alpha: 0.7, GapProb: 0.02},
			{Name: "small", NSites: 70, Alpha: 1.1, GapProb: 0.02},
		},
		Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	return d, res.Tree
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
	if l.BatchedKernels() != 1 || threadpool.NumBlocks(l.Kernels[0].NPatterns()) < 3 {
		t.Fatalf("want one batched kernel and one of at least 3 blocks; got %d batched, %d patterns", l.BatchedKernels(), l.Kernels[0].NPatterns())
	}
	return l, tree.NewRandom(d.Names, 1, rand.New(rand.NewSource(8)))
}

// TestEvaluateSkipsMaskedPartitions: a partition the descriptor masks out
// costs nothing and keeps everything — its kernel's CLVs are not touched
// (here: still never computed), its result slot is 0 — while the others
// return the bits an unmasked evaluation returns, on the pooled and on
// the batched path alike.
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

// localTrace drives every Local operation once over tr and returns every
// output bit: CLV digests after the traversal, per-partition log
// likelihoods, per-class and per-partition derivatives, the all-branch
// gradient (contracted, then reused at other lengths), one prune point's
// insertion scores and, under PSR, the optimized site rates with their
// cell statistics.
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
	l.PrepareLocal(d)
	bits(l.DerivativesLocal([]float64{0.07}))
	bits(l.DerivativesPerPartition([]float64{0.07, 0.3}))

	plan, _ := traversal.BuildGradient(tr, nil)
	bits(l.AllBranchDerivativesLocal(plan))
	plan.Reuse = true
	for b := range plan.T[0] {
		plan.T[0][b] *= 1.5
	}
	bits(l.AllBranchDerivativesLocal(plan))
	bits(l.AllBranchDerivativesPerPartition(plan))

	pruned := tr.Clone()
	ps, err := pruned.Prune(pruned.Tip(0).Back.Next)
	if err != nil {
		t.Fatal(err)
	}
	var ins traversal.InsertPlan
	ins.Build(pruned, ps, ps.CandidateEdges(1, 5), nil)
	bits(l.ScoreInsertionsLocal(&ins))

	if l.Het == model.PSR {
		bits(l.OptimizeSiteRatesLocal(d))
		for _, k := range l.Kernels {
			bits(k.Params().SiteRates)
		}
	}
	return out
}

// TestBatchingChangesNoBit: a kernel fused into the small-partition
// batch computes serially inside one pool item and deposits into its own
// kernel-indexed slots, which the caller folds in kernel order — so every
// Local operation returns the bits it returns with every kernel on the
// shared pool (docs/DETERMINISM.md §8), at one thread and at four.
func TestBatchingChangesNoBit(t *testing.T) {
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		for _, threads := range []int{1, 4} {
			fused, tr := mixedLocal(t, het, threads)
			pooled, _ := mixedLocal(t, het, threads)
			pooled.setBatchSites(0)
			if pooled.BatchedKernels() != 0 {
				t.Fatalf("setBatchSites(0) left %d kernels batched", pooled.BatchedKernels())
			}
			got, want := localTrace(t, fused, tr), localTrace(t, pooled, tr)
			if len(got) != len(want) {
				t.Fatalf("%v T=%d: %d outputs fused, %d pooled", het, threads, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v T=%d: output %d: fused %x, pooled %x", het, threads, i, got[i], want[i])
				}
			}
			if fused.batchDispatches == 0 {
				t.Errorf("%v T=%d: no batched dispatch ran", het, threads)
			}
		}
	}
}
