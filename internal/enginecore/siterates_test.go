package enginecore

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/msa"
	"repro/internal/numutil"
	"repro/internal/telemetry"
	"repro/internal/traversal"
	"repro/internal/tree"
)

// serialScan runs the rate scan the way it reads with nothing around it:
// one kernel at a time, its table filled for the whole grid, its patterns
// in order on the calling goroutine.
func serialScan(l *Local, d *traversal.Descriptor) {
	var tab likelihood.SiteRateTable
	for _, k := range l.Kernels {
		k.FillSiteRateTable(&tab, d.Steps[0], d.T[0], 0, model.SiteRateGridSize-1)
		siteRateArgs{k: k, tab: &tab, steps: d.Steps[0], p: d.P, q: d.Q, rootT: d.T[0]}.optimize(0, k.NPatterns())
	}
}

// siteRateEvals sums the single-site evaluation counters of l's kernels.
func siteRateEvals(l *Local) (table, exact int64) {
	for _, k := range l.Kernels {
		fp := k.Counters()
		table += fp[telemetry.RankSiteRateTableEvals]
		exact += fp[telemetry.RankSiteRateExactEvals]
	}
	return table, exact
}

// TestSiteRatesSameBitsAtEveryThreadCount: sites are independent, nothing
// is reduced and the table is a function of the schedule, the branch
// lengths, the eigensystem and the grid — whichever worker fills its copy
// — so a pattern's rate after one round and after two is the bit pattern
// serialScan gives it: with no pool and with 1, 2, 3 and 4 threads,
// whether the rank's patterns sit in one kernel of several blocks, in
// twenty kernels of one block or in both kinds, and whichever rank of 1,
// 2 or 3 holds the pattern; one rank's cell statistics are those of the
// serial rates; every arrangement spends the same evaluations; and a
// round is one pool dispatch.
func TestSiteRatesSameBitsAtEveryThreadCount(t *testing.T) {
	for _, shape := range shapes {
		data, _ := shapedData(t, shape.sites)
		tr := tree.NewRandom(data.Names, 1, rand.New(rand.NewSource(8)))
		d := traversal.Build(tr, tr.Tip(0), true)

		ref, _ := mixedRank(t, data, model.PSR, 0, 1, 0)
		const rounds, cells = 2, model.MaxPSRCategories
		var want [rounds][][]float64 // [round][partition][pattern]
		var wantStats [rounds][]float64
		var wantTable, wantExact int64
		for r := 0; r < rounds; r++ {
			// The second round starts from the first one's rates: a state
			// where neighbouring sites differ.
			serialScan(ref, d)
			wantStats[r] = make([]float64, SiteRateCells(ref.NPart))
			moved := 0
			for p, k := range ref.Kernels {
				rates := k.Params().SiteRates
				want[r] = append(want[r], append([]float64(nil), rates...))
				model.AccumulateRateCells(rates, k.Data().Weights, wantStats[r][2*cells*p:][:cells], wantStats[r][2*cells*p+cells:][:cells])
				for _, x := range rates {
					if x != 1 {
						moved++
					}
				}
			}
			if moved == 0 {
				t.Fatal("serial scan: no rate moved off its start")
			}
		}
		wantTable, wantExact = siteRateEvals(ref)

		for _, threads := range []int{0, 1, 2, 3, 4} {
			for _, ranks := range []int{1, 2, 3} {
				var table, exact int64
				for rank := 0; rank < ranks; rank++ {
					l, shares := mixedRank(t, data, model.PSR, threads, ranks, rank)
					for r := 0; r < rounds; r++ {
						stats := l.OptimizeSiteRatesLocal(d)
						for ki, k := range l.Kernels {
							for j, x := range k.Params().SiteRates {
								if w := want[r][shares[ki].Part][shares[ki].Patterns[j]]; math.Float64bits(x) != math.Float64bits(w) {
									t.Fatalf("%s T=%d rank %d of %d, round %d, partition %d pattern %d: rate %.17g, serial scan %.17g",
										shape.name, threads, rank, ranks, r, shares[ki].Part, shares[ki].Patterns[j], x, w)
								}
							}
						}
						if ranks > 1 {
							continue
						}
						for i := range stats {
							if math.Float64bits(stats[i]) != math.Float64bits(wantStats[r][i]) {
								t.Fatalf("%s T=%d round %d: cell statistic %d is %.17g, of the serial rates %.17g", shape.name, threads, r, i, stats[i], wantStats[r][i])
							}
						}
					}
					tb, ex := siteRateEvals(l)
					table, exact = table+tb, exact+ex
					if ps := l.pool.Stats(); l.counts[telemetry.RankEngineCalls] != rounds || ps.Dispatches > rounds {
						t.Errorf("%s T=%d rank %d of %d: %d rounds were %d engine calls and %d pool dispatches", shape.name, threads, rank, ranks, rounds, l.counts[telemetry.RankEngineCalls], ps.Dispatches)
					}
				}
				if table != wantTable || exact != wantExact {
					t.Errorf("%s T=%d ranks=%d: %d table + %d exact evaluations, serial scan %d + %d", shape.name, threads, ranks, table, exact, wantTable, wantExact)
				}
			}
		}
	}
}

// TestSiteRateScanCost: a site costs the scan at most 17 table evaluations
// and exactly 2 exact ones per round, counted one site at a time.
func TestSiteRateScanCost(t *testing.T) {
	data, tr := mixedData(t)
	d := traversal.Build(tr, tr.Tip(0), true)
	l, _ := mixedRank(t, data, model.PSR, 0, 1, 0)
	var tab likelihood.SiteRateTable
	most := int64(0)
	for round := 0; round < 3; round++ {
		for _, k := range l.Kernels {
			k.FillSiteRateTable(&tab, d.Steps[0], d.T[0], 0, model.SiteRateGridSize-1)
			a := siteRateArgs{k: k, tab: &tab, steps: d.Steps[0], p: d.P, q: d.Q, rootT: d.T[0]}
			for i := 0; i < k.NPatterns(); i++ {
				before := k.Counters()
				a.optimize(i, i+1)
				after := k.Counters()
				table, exact := after[telemetry.RankSiteRateTableEvals]-before[telemetry.RankSiteRateTableEvals], after[telemetry.RankSiteRateExactEvals]-before[telemetry.RankSiteRateExactEvals]
				if table < 1 || table > 17 || exact != 2 {
					t.Fatalf("round %d site %d: %d table and %d exact evaluations, want at most 17 and exactly 2", round, i, table, exact)
				}
				most = max(most, table)
			}
		}
	}
	t.Logf("most table evaluations spent on one site: %d", most)
}

// TestSiteRateLoopAllocatesNothing: the staged arguments, the cached pool
// closure, the workers' own tables and the caller-owned cell buffers
// leave a site-rate call with no allocation once the first calls have
// sized the tables, on a serial rank and on a threaded one.
func TestSiteRateLoopAllocatesNothing(t *testing.T) {
	for _, threads := range []int{1, 2} {
		l, tr := mixedLocal(t, model.PSR, threads)
		d := traversal.Build(tr, tr.Tip(0), true)
		for warm := 0; warm < 3; warm++ {
			l.OptimizeSiteRatesLocal(d)
		}
		if got := testing.AllocsPerRun(5, func() { l.OptimizeSiteRatesLocal(d) }); got != 0 {
			t.Errorf("T=%d: OptimizeSiteRatesLocal allocates %v times per call, want 0", threads, got)
		}
	}
}

// brentOracle maximizes site i's exact log likelihood over [lo, hi] by
// Brent's method at an x tolerance far below anything the scan resolves.
func brentOracle(a siteRateArgs, i int, lo, hi float64) float64 {
	neg := func(r float64) float64 { return -a.exact(i, r) }
	x := lo + 0.3819660112501051*(hi-lo)
	var s numutil.BrentStepper
	s.Start(lo, hi, x, neg(x), 1e-6)
	for iter := 0; iter < 200; iter++ {
		u, ok := s.Next()
		if !ok {
			break
		}
		s.Report(neg(u))
	}
	_, f := s.Best()
	return -f
}

// TestSiteRateScanAgainstBrent: on data simulated with four rate classes,
// on the tree it was simulated on, the rate the scan leaves a site with is
// never worse than the rate it had, and within 2e-3 log units of what a
// continuous search of the same window finds — round after round, from
// the uniform start through rates that have spread over the classes.
func TestSiteRateScanAgainstBrent(t *testing.T) {
	data, tr := mixedData(t)
	l, _ := mixedRank(t, data, model.PSR, 0, 1, 0)
	worst, sum, n := 0.0, 0.0, 0
	for round := 0; round < 3; round++ {
		d := traversal.Build(tr, tr.Tip(0), true)
		cur := make([][]float64, len(l.Kernels))
		for ki, k := range l.Kernels {
			cur[ki] = append([]float64(nil), k.Params().SiteRates...)
		}
		stats := l.OptimizeSiteRatesLocal(d)
		for ki, k := range l.Kernels {
			a := siteRateArgs{k: k, steps: d.Steps[0], p: d.P, q: d.Q, rootT: d.T[0]}
			for i, x := range k.Params().SiteRates {
				got, was := a.exact(i, x), a.exact(i, cur[ki][i])
				if got < was {
					t.Fatalf("round %d kernel %d site %d: rate %g → %g took lnL %.6f → %.6f", round, ki, i, cur[ki][i], x, was, got)
				}
				rLo, rHi, _, _ := siteRateWindow(cur[ki][i])
				best := brentOracle(a, i, rLo, rHi)
				if short := best - got; short > 2e-3 {
					t.Errorf("round %d kernel %d site %d: lnL %.6f at rate %g, Brent finds %.6f in the window", round, ki, i, got, x, best)
				} else if short > 0 {
					worst, sum = math.Max(worst, short), sum+short
				}
				n++
			}
		}
		rescale(l, tr, stats)
	}
	t.Logf("%d site-rounds: shortfall against Brent at most %.2g, %.2g in total", n, worst, sum)
}

// TestSiteRateScanIsContinuous: branch lengths that differ in the last bit
// — what the same search holds at two rank counts — give all but a
// handful of sites the same rate to within 1e-6. An arg-max over grid
// points would move the sites whose two best points nearly tie by a
// whole grid step.
func TestSiteRateScanIsContinuous(t *testing.T) {
	data, tr := mixedData(t)
	base := scanRates(t, data, tr, 1)
	for _, f := range []float64{1 + 0x1p-52, 1 - 0x1p-52} {
		got := scanRates(t, data, tr, f)
		moved, far := 0, 0
		for i := range base {
			if got[i] != base[i] {
				moved++
			}
			if math.Abs(got[i]-base[i]) > 1e-6*base[i] {
				far++
			}
		}
		t.Logf("lengths × %.17g: %d of %d rates differ at all, %d by more than 1e-6", f, moved, len(base), far)
		if 100*far > len(base) {
			t.Errorf("lengths × %.17g: %d of %d rates moved by more than 1e-6 relative", f, far, len(base))
		}
	}
}

// rescale does what the search does between two rounds of the scan:
// rates to mean 1, branch lengths the other way.
func rescale(l *Local, tr *tree.Tree, stats []float64) {
	res := ResolveSiteRates(stats, l.NPart, false)
	l.ApplySiteRates(res)
	for _, e := range tr.Edges() {
		e.SetLength(0, e.Length(0)*res.Scale[0])
	}
}

// scanRates scales every branch length of tr by f and returns every
// pattern's rate after two rounds of the scan with the rates rescaled in
// between, as the search does.
func scanRates(t *testing.T, data *msa.Dataset, tr *tree.Tree, f float64) []float64 {
	t.Helper()
	tr = tr.Clone()
	for _, e := range tr.Edges() {
		e.SetLength(0, e.Length(0)*f)
	}
	l, _ := mixedRank(t, data, model.PSR, 0, 1, 0)
	rescale(l, tr, l.OptimizeSiteRatesLocal(traversal.Build(tr, tr.Tip(0), true)))
	l.OptimizeSiteRatesLocal(traversal.Build(tr, tr.Tip(0), true))
	var out []float64
	for _, k := range l.Kernels {
		out = append(out, k.Params().SiteRates...)
	}
	return out
}

// FuzzDecodeSiteRateResolution: the decoder reads floats a master sent.
// Whatever they are, it returns a resolution that re-encodes to the same
// float bits, or an error; it never panics.
func FuzzDecodeSiteRateResolution(f *testing.F) {
	bytesOf := func(v []float64) []byte {
		buf := make([]byte, 8*len(v))
		for i, x := range v {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
		}
		return buf
	}
	for _, perPart := range []bool{false, true} {
		enc := ResolveSiteRates(randomCellStats(4), 4, perPart).Encode()
		f.Add(bytesOf(enc), uint8(4), perPart)
		enc[0] = 2.7
		f.Add(bytesOf(enc), uint8(4), perPart)
		enc[0] = math.NaN()
		f.Add(bytesOf(enc), uint8(4), perPart)
	}
	f.Add([]byte{}, uint8(0), false)
	f.Add(bytesOf(make([]float64, 1+model.MaxPSRCategories+1)), uint8(1), true)
	f.Fuzz(func(t *testing.T, buf []byte, nPart uint8, perPart bool) {
		v := make([]float64, len(buf)/8)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		res, err := DecodeSiteRateResolution(v, int(nPart%8), perPart)
		if err != nil {
			return
		}
		again := res.Encode()
		if len(again) != len(v) {
			t.Fatalf("decoded resolution re-encodes to %d values, %d were decoded", len(again), len(v))
		}
		for i := range v {
			if math.Float64bits(again[i]) != math.Float64bits(v[i]) {
				t.Fatalf("value %d re-encodes as %x, was %x", i, math.Float64bits(again[i]), math.Float64bits(v[i]))
			}
		}
	})
}
