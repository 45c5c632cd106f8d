package examl

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation section, plus the ablation benchmarks DESIGN.md calls out and
// kernel microbenchmarks. Domain metrics (traffic volumes, speedup ratios,
// projected times) are attached via b.ReportMetric so `go test -bench`
// output doubles as the reproduction record.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"

	"repro/internal/decentral"
	"repro/internal/distrib"
	"repro/internal/enginecore"
	"repro/internal/experiments"
	"repro/internal/forkjoin"
	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/mpinet"
	"repro/internal/msa"
	"repro/internal/parsimony"
	"repro/internal/search"
	"repro/internal/seqgen"
	"repro/internal/threadpool"
	"repro/internal/traversal"
	"repro/internal/tree"
)

// ---------- Table I ----------

// BenchmarkTable1 regenerates the Table I traffic decomposition (one
// sub-benchmark per configuration column).
func BenchmarkTable1(b *testing.B) {
	sc := experiments.Small()
	for b.Loop() {
		res, err := experiments.Table1(sc)
		if err != nil {
			b.Fatal(err)
		}
		for i, col := range res.Columns {
			_ = col
			b.ReportMetric(res.Columns[i].SharePercent[3], "descriptor_share_cfg"+string(rune('0'+i)))
		}
	}
}

// ---------- Figure 3 ----------

// BenchmarkFig3 regenerates the Figure 3 scaling study and reports the
// PSR speedups at 8 and 32 nodes (paper: 6.9× and 26.9×).
func BenchmarkFig3(b *testing.B) {
	sc := experiments.Small()
	for b.Loop() {
		res, err := experiments.Fig3(sc)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.PSR {
			if p.Nodes == 8 {
				b.ReportMetric(p.Speedup, "PSR_speedup_8nodes")
			}
			if p.Nodes == 32 {
				b.ReportMetric(p.Speedup, "PSR_speedup_32nodes")
			}
		}
		b.ReportMetric(res.Gamma32Ratio, "gamma32_raxml/examl")
	}
}

// ---------- Figure 4 ----------

func benchmarkFig4(b *testing.B, perPartition bool) {
	sc := experiments.Small()
	for b.Loop() {
		res, err := experiments.Fig4(sc, perPartition)
		if err != nil {
			b.Fatal(err)
		}
		// Report the Γ ratio at the largest partition count — the
		// paper's headline number for this figure.
		for _, p := range res.Points {
			if !p.PSR && p.Partitions == sc.PartCounts[len(sc.PartCounts)-1] {
				b.ReportMetric(p.SpeedupRatio, "gamma_maxparts_ratio")
				b.ReportMetric(float64(p.RAxMLLightBytes)/float64(p.ExaMLBytes), "gamma_maxparts_byteratio")
			}
		}
	}
}

// BenchmarkFig4a regenerates Figure 4(a) (joint branch lengths).
func BenchmarkFig4a(b *testing.B) { benchmarkFig4(b, false) }

// BenchmarkFig4b regenerates Figure 4(b) (per-partition branch lengths).
func BenchmarkFig4b(b *testing.B) { benchmarkFig4(b, true) }

// ---------- scheme comparison (wall clock on this machine) ----------

func benchDataset(b *testing.B, taxa, parts, geneLen int) *msa.Dataset {
	b.Helper()
	res, err := seqgen.Generate(seqgen.PartitionedGenes(taxa, parts, geneLen, 99))
	if err != nil {
		b.Fatal(err)
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkSchemeDecentral measures a full decentralized inference.
func BenchmarkSchemeDecentral(b *testing.B) {
	d := benchDataset(b, 12, 8, 100)
	cfg := search.Config{Het: model.Gamma, Seed: 1, MaxIterations: 1}
	b.ResetTimer()
	for b.Loop() {
		if _, _, err := decentral.Run(d, enginecore.RunConfig{Search: cfg, Ranks: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchemeForkJoin measures the identical inference under the
// fork-join scheme.
func BenchmarkSchemeForkJoin(b *testing.B) {
	d := benchDataset(b, 12, 8, 100)
	cfg := search.Config{Het: model.Gamma, Seed: 1, MaxIterations: 1}
	b.ResetTimer()
	for b.Loop() {
		if _, _, err := forkjoin.Run(d, enginecore.RunConfig{Search: cfg, Ranks: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- kernel microbenchmarks ----------

func benchKernel(b *testing.B, het model.Heterogeneity) (*likelihood.Kernel, *tree.Tree, []likelihood.Step) {
	b.Helper()
	res, err := seqgen.Generate(seqgen.Config{
		NTaxa: 32,
		Specs: []seqgen.Spec{{Name: "g", NSites: 5000, Alpha: 0.8}},
		Seed:  5,
	})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		b.Fatal(err)
	}
	pd := ds.Parts[0]
	par, err := model.NewParams(het, pd.Freqs, pd.NPatterns())
	if err != nil {
		b.Fatal(err)
	}
	tr := tree.NewRandom(ds.Names, 1, rand.New(rand.NewSource(3)))
	k, err := likelihood.NewKernel(pd, par, tr.NInner())
	if err != nil {
		b.Fatal(err)
	}
	steps := traversal.ForEdge(tr, tr.Tip(0), 0, true)
	k.Traverse(steps)
	k.Flush(nil)
	return k, tr, steps
}

// BenchmarkKernelNewviewGamma measures the Γ CLV kernel.
func BenchmarkKernelNewviewGamma(b *testing.B) {
	k, _, steps := benchKernel(b, model.Gamma)
	b.ResetTimer()
	for b.Loop() {
		k.Traverse(steps)
		k.Flush(nil)
	}
	b.ReportMetric(float64(k.NPatterns()*len(steps)), "columns/op")
}

// BenchmarkKernelNewviewPSR measures the PSR CLV kernel (4× less data).
func BenchmarkKernelNewviewPSR(b *testing.B) {
	k, _, steps := benchKernel(b, model.PSR)
	b.ResetTimer()
	for b.Loop() {
		k.Traverse(steps)
		k.Flush(nil)
	}
}

// BenchmarkKernelEvaluateGamma measures the root-evaluation kernel.
func BenchmarkKernelEvaluateGamma(b *testing.B) {
	k, tr, _ := benchKernel(b, model.Gamma)
	p := traversal.Ref(tr, tr.Tip(0))
	q := traversal.Ref(tr, tr.Tip(0).Back)
	b.ResetTimer()
	for b.Loop() {
		k.Evaluate(p, q, 0.1)
		k.Flush(nil)
	}
}

// BenchmarkKernelDerivativesGamma measures the Newton derivative kernel
// after sum-table preparation (the per-iteration cost of branch
// optimization).
func BenchmarkKernelDerivativesGamma(b *testing.B) {
	k, tr, _ := benchKernel(b, model.Gamma)
	p := traversal.Ref(tr, tr.Tip(0))
	q := traversal.Ref(tr, tr.Tip(0).Back)
	k.Contract(0, p, q)
	k.Flush(nil)
	b.ResetTimer()
	for b.Loop() {
		k.Derivatives(0, 0.1)
		k.Flush(nil)
	}
}

// ---------- §V hybrid: intra-rank kernel threading ----------

// gammaFlopsPerColumn is the rough floating-point cost of one Γ CLV
// column update (4 rates × 4 states × two length-4 dot products plus the
// scaler product) — the estimate behind the flops/op benchmark metric.
const gammaFlopsPerColumn = 4 * 4 * 15

// gammaBytesPerColumn is the main-memory traffic of one Γ CLV column
// update: two child CLV columns read plus one written, 4 rates × 4
// states × 8 bytes each. Together with gammaFlopsPerColumn it gives the
// arithmetic intensity (~1.25 flops/byte) that places the kernel on a
// roofline plot: bytes/s and flops/byte follow from the bytes/op and
// flops/op metrics and ns/op.
const gammaBytesPerColumn = 3 * 4 * 4 * 8

// BenchmarkKernelThreadsGamma measures the Γ kernels (full traversal +
// evaluation) at increasing intra-rank thread counts — the single-rank
// speedup axis of the §V hybrid scheme. Results are bit-identical across
// the sub-benchmarks; only wall clock changes. The reported speedup
// metric is serial ns/op over this thread count's ns/op; it tracks
// physical core count, so it saturates at GOMAXPROCS (also reported, so
// a flat curve on single-core CI is distinguishable from a regression).
func BenchmarkKernelThreadsGamma(b *testing.B) {
	var serialNs float64
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("T=%d", threads), func(b *testing.B) {
			k, tr, steps := benchKernel(b, model.Gamma)
			nb := threadpool.NumBlocks(k.NPatterns())
			if nb < 2 {
				b.Fatalf("pattern range spans %d block(s); dataset too small to exercise the pool", nb)
			}
			pool := threadpool.New(threads)
			defer pool.Close()
			p := traversal.Ref(tr, tr.Tip(0))
			q := traversal.Ref(tr, tr.Tip(0).Back)
			b.ResetTimer()
			for b.Loop() {
				k.Traverse(steps)
				k.Evaluate(p, q, 0.1)
				k.Flush(pool)
			}
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if threads == 1 {
				serialNs = nsPerOp
			}
			if serialNs > 0 && nsPerOp > 0 {
				b.ReportMetric(serialNs/nsPerOp, "speedup")
			}
			b.ReportMetric(float64(threads), "threads")
			b.ReportMetric(float64(nb), "blocks")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			cols := k.NPatterns() * (len(steps) + 1) // traversal + evaluation columns
			b.ReportMetric(float64(cols*gammaFlopsPerColumn), "flops/op")
			b.ReportMetric(float64(cols*gammaBytesPerColumn), "bytes/op")
		})
	}
}

// BenchmarkKernelBatch measures an engine call on a partition-rich rank
// (docs/PERFORMANCE.md §6): many partitions, each a single pattern
// block, driven through a threaded rank's Newton derivative step — the
// per-iteration cost of every branch-length optimization, where
// per-partition compute is small enough that pool synchronization is a
// first-order cost. Every partition is a one-item program and all of
// them are the items of the call's single pool dispatch, so the
// synchronization cost is paid once per operation.
func BenchmarkKernelBatch(b *testing.B) {
	const parts = 64
	d := benchDataset(b, 24, parts, 200)
	counts := make([]int, d.NPartitions())
	for i, p := range d.Parts {
		counts[i] = p.NPatterns()
		// One pool block each: a one-item program.
		if counts[i] >= threadpool.BlockSize {
			b.Fatalf("partition %d has %d patterns; need fewer than %d", i, counts[i], threadpool.BlockSize)
		}
	}
	assign, err := distrib.Compute(distrib.Cyclic, counts, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		b.Run(het.String(), func(b *testing.B) {
			world := mpi.NewWorld(1)
			eng, err := decentral.NewEngine(world.Comm(0), d, assign, enginecore.Config{
				Het: het, Subst: model.GTR, Threads: 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			tr := tree.NewRandom(d.Names, 1, rand.New(rand.NewSource(5)))
			desc := traversal.Build(tr, tr.Tip(0), true)
			// Warm: CLVs + sum tables + scratch, so the loop measures
			// the repeated Newton step alone: one branch's Reuse plan.
			var edge traversal.GradPlan
			edge.SetEdge(desc)
			eng.Evaluate(desc)
			eng.AllBranchDerivatives(&edge)
			edge.Reuse, edge.T[0][0] = true, 0.1
			eng.AllBranchDerivatives(&edge)
			b.ResetTimer()
			for b.Loop() {
				eng.AllBranchDerivatives(&edge)
			}
			b.ReportMetric(float64(parts), "partitions")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
}

// BenchmarkHybridGrid sweeps the §V configuration space — ranks ×
// threads-per-rank over the flat Allreduce — on one decentralized search
// iteration. This is the reproduction recipe for the paper's hybrid
// experiment (EXPERIMENTS.md).
func BenchmarkHybridGrid(b *testing.B) {
	d := benchDataset(b, 12, 2, 1500)
	cfg := search.Config{Het: model.Gamma, Seed: 1, MaxIterations: 1}
	for _, ranks := range []int{1, 2, 4} {
		for _, threads := range []int{1, 2, 4} {
			name := fmt.Sprintf("ranks=%d/T=%d", ranks, threads)
			b.Run(name, func(b *testing.B) {
				rc := enginecore.RunConfig{
					Search:  cfg,
					Ranks:   ranks,
					Threads: threads,
				}
				var cols int64
				for b.Loop() {
					_, stats, err := decentral.Run(d, rc)
					if err != nil {
						b.Fatal(err)
					}
					cols = stats.TotalColumns
				}
				b.ReportMetric(float64(ranks*threads), "total_workers")
				b.ReportMetric(float64(cols*gammaFlopsPerColumn), "flops/op")
			})
		}
	}
}

// ---------- batched all-branch gradients (docs/PERFORMANCE.md) ----------

// BenchmarkAllBranchGradient measures branch-length smoothing — the
// batched all-branch gradient smoother on a smoothing-dominated workload
// (SkipTopology) — over real loopback TCP: one mpinet endpoint per rank,
// so every branch-length collective is a socket round trip, the
// transport regime the batching targets. It reports the metered
// branch-length Allreduce count, one per Newton iteration of a sweep
// whatever the branch count.
func BenchmarkAllBranchGradient(b *testing.B) {
	d := benchDataset(b, 24, 4, 60)
	cfg := search.Config{Het: model.Gamma, Seed: 1, MaxIterations: 1, SkipTopology: true}
	const ranks = 3
	nonce := uint64(0)
	var blOps int64
	for b.Loop() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		nonce++
		var wg sync.WaitGroup
		errs := make([]error, ranks)
		var rank0Ops int64
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				tr, err := mpinet.Connect(mpinet.Config{Rank: rank, Size: ranks, Addr: addr, Nonce: nonce})
				if err != nil {
					errs[rank] = err
					return
				}
				c := mpi.NewComm(tr, rank, ranks, mpi.NewMeter())
				defer c.Close()
				_, stats, err := decentral.RunOnComm(c, d, enginecore.RunConfig{Search: cfg})
				errs[rank] = err
				if rank == 0 && stats != nil {
					rank0Ops = stats.Comm.Ops[mpi.ClassBranchLength]
				}
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				b.Fatalf("rank %d: %v", r, err)
			}
		}
		blOps = rank0Ops
	}
	b.ReportMetric(float64(blOps), "bl_allreduces")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// ---------- binary format vs PHYLIP ----------

// BenchmarkBinaryVsPhylip compares loading the same dataset from the
// binary alignment format vs parsing PHYLIP text — the speedup the
// paper's §V binary-format plan is after.
func BenchmarkBinaryVsPhylip(b *testing.B) {
	res, err := seqgen.Generate(seqgen.PartitionedGenes(24, 8, 500, 17))
	if err != nil {
		b.Fatal(err)
	}
	var phy bytes.Buffer
	if err := msa.WritePhylip(&phy, res.Alignment); err != nil {
		b.Fatal(err)
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		b.Fatal(err)
	}
	var bin bytes.Buffer
	if err := msa.WriteBinary(&bin, d); err != nil {
		b.Fatal(err)
	}
	parts := res.Partitions

	b.Run("phylip", func(b *testing.B) {
		for b.Loop() {
			a, err := msa.ParsePhylip(bytes.NewReader(phy.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := msa.Compress(a, parts); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(phy.Len()))
	})
	b.Run("binary", func(b *testing.B) {
		for b.Loop() {
			if _, err := msa.ReadBinary(bytes.NewReader(bin.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(bin.Len()))
	})
}

// ---------- parsimony starting trees ----------

// BenchmarkParsimonyStart measures Parsimonator-style starting-tree
// construction (stepwise addition + SPR refinement).
func BenchmarkParsimonyStart(b *testing.B) {
	d := benchDataset(b, 24, 4, 250)
	b.ResetTimer()
	for b.Loop() {
		if _, _, err := parsimony.Build(d, 1, 7); err != nil {
			b.Fatal(err)
		}
	}
}
