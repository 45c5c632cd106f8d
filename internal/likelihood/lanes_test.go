package likelihood

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/msa"
	"repro/internal/telemetry"
	"repro/internal/threadpool"
)

// laneValue draws one CLV-like entry for a site of the given magnitude:
// mostly ordinary, sometimes a signed zero or NaN. Every value is at most
// 1 in size, so no product overflows to an infinity and every NaN is the
// one math.NaN makes: a NaN result then has the same bits whichever NaN
// operand an instruction propagates.
func laneValue(rng *rand.Rand, mag float64) float64 {
	switch r := rng.Intn(100); {
	case r < 6:
		return math.Copysign(0, float64(rng.Intn(2)*2-1))
	case r < 8:
		return math.NaN()
	}
	return mag * rng.Float64()
}

// lanePlanes returns a Γ CLV of n sites whose sites each draw their entries
// at one magnitude: ordinary, small enough that every product of two falls
// below ScaleThreshold (the site rescales unless a NaN or another
// category lifts it), or subnormal territory.
func lanePlanes(rng *rand.Rand, n int) []float64 {
	mags := []float64{1, 1, 1, 1e-80, 1e-160}
	mag := make([]float64, n)
	for i := range mag {
		mag[i] = mags[rng.Intn(len(mags))]
	}
	v := make([]float64, n*gammaCats*ns)
	for p := 0; p < gammaCats*ns; p++ {
		for i := 0; i < n; i++ {
			v[p*n+i] = laneValue(rng, mag[i])
		}
	}
	return v
}

// laneMatrices returns a random set of n P matrices.
func laneMatrices(rng *rand.Rand, n int) [][ns * ns]float64 {
	pm := make([][ns * ns]float64, n)
	for c := range pm {
		for e := range pm[c] {
			if rng.Intn(200) == 0 {
				pm[c][e] = math.NaN()
			} else {
				pm[c][e] = rng.Float64()
			}
		}
	}
	return pm
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// laneBits appends the bits of every value of vs to out.
func laneBits[T float64 | int32 | bool](out []uint64, vs []T) []uint64 {
	for _, v := range vs {
		switch v := any(v).(type) {
		case float64:
			out = append(out, math.Float64bits(v))
		case int32:
			out = append(out, uint64(uint32(v)))
		case bool:
			out = append(out, uint64(b2i(v)))
		}
	}
	return out
}

// TestLanesMatchGoLoop holds every lane routine to the Go loop it starts
// (lanes.go): each Γ worker runs a block twice, lanes off and lanes on,
// from the same state, over every width 1–256 (so every tail length) at
// random offsets, on operands mixing ordinary values with signed zeros,
// NaN, sites whose products fall below ScaleThreshold and subnormal ones,
// tip codes from all 16 with tables filled for all 16, every operand
// shape — both tip orientations and two tips with their own codes and
// tables — random frequencies, a random eigensystem, and sum
// tables whose sites have f ≤ 0, NaN or infinite terms under weights
// drawn from 0–5. Every double written — the CLV planes, scaling
// included; the per-site likelihoods; the sum tables — every scale count
// and noScale flag, and every block's (d1, d2) must have the same bits.
func TestLanesMatchGoLoop(t *testing.T) {
	if !haveLanes {
		t.Skip("this CPU has no AVX2: the lanes never run, the Go loops compute every site")
	}
	defer SetLanes(SetLanes(8))

	const nPat = 300
	rng := rand.New(rand.NewSource(27))
	pd := &msa.PartitionData{Name: "lanes", Tips: [][]msa.State{make([]msa.State, nPat)}, Weights: make([]int, nPat)}
	for i := range pd.Weights {
		pd.Weights[i] = rng.Intn(6)
	}
	par, err := model.NewParams(model.Gamma, model.UniformFreqs(), nPat)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(pd, par, 1)
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 4*threadpool.BlockSize; trial++ {
		w := 1 + trial%threadpool.BlockSize
		lo := rng.Intn(nPat - w + 1)
		hi := lo + w
		tipsA, tipsB := make([]msa.State, nPat), make([]msa.State, nPat)
		for i := range tipsA {
			tipsA[i], tipsB[i] = msa.State(rng.Intn(16)), msa.State(rng.Intn(16))
		}
		tip := operand{tips: tipsA, rowMasks: rowMasks{mask: 0xffff}}
		tip2 := operand{tips: tipsB, rowMasks: rowMasks{mask: 0xffff}}
		a := operand{clv: lanePlanes(rng, nPat), scale: make([]int32, nPat)}
		b := operand{clv: lanePlanes(rng, nPat), scale: make([]int32, nPat)}
		for i := range a.scale {
			a.scale[i], b.scale[i] = int32(rng.Intn(3)), int32(rng.Intn(3))
		}
		pa, pb := laneMatrices(rng, gammaCats), laneMatrices(rng, gammaCats)
		tabA, tabB := make([]float64, gammaCats*16*ns), make([]float64, gammaCats*16*ns)
		k.fillTipTable(tabA, pa, 0xffff, nil)
		k.fillTipTable(tabB, pb, 0xffff, nil)
		k.insTab = lanePlanes(rng, nPat)
		for x := range par.Freqs {
			par.Freqs[x] = 0.05 + rng.Float64()
		}
		catW := rng.Float64()
		prepP, prepQ := randomEigen(rng, k, par)
		sum0, sumSpecial := gammaLaneSumTable(rng, nPat, false), gammaLaneSumTable(rng, nPat, true)
		var ex, lam [gammaCats][ns]float64
		for c := range ex {
			for kk := 0; kk < ns; kk++ {
				ex[c][kk], lam[c][kk] = rng.Float64(), -3*rng.ExpFloat64()
			}
			ex[c][ns-1], lam[c][ns-1] = 1, 0
		}

		// The state every run starts from: destination planes, per-site
		// likelihoods and scale decisions already holding values.
		d0 := lanePlanes(rng, nPat)
		site0 := make([]float64, w)
		noScale0 := make([]bool, w)
		for j := range site0 {
			site0[j] = rng.Float64()
			noScale0[j] = rng.Intn(4) == 0
		}
		// A tip side reads the table of its own matrices: tabA under pa,
		// tabB under pb; evaluation and score have pa alone.
		tables := func(o operand, tab []float64) []float64 {
			if o.tips == nil {
				return nil
			}
			return tab
		}
		newview := func(oa, ob operand) func() []uint64 {
			return func() []uint64 {
				d, ds := append([]float64(nil), d0...), make([]int32, nPat)
				k.newviewGammaSoABlock(d, ds, oa, ob, tables(oa, tabA), tables(ob, tabB), pa, pb, lo, hi)
				return laneBits(laneBits(nil, d), ds)
			}
		}
		sites := func(run func(site []float64, noScale []bool)) []uint64 {
			site, noScale := append([]float64(nil), site0...), append([]bool(nil), noScale0...)
			run(site, noScale)
			return laneBits(laneBits(nil, site), noScale)
		}
		evaluate := func(op, oq operand) func() []uint64 {
			return func() []uint64 {
				return sites(func(site []float64, _ []bool) { k.evaluateGammaSites(site, op, oq, pa, tables(oq, tabA), catW, lo) })
			}
		}
		// candidate runs a whole candidate block: its score, rescaled
		// sites and the step's slot.
		candidate := func(oa, ob, far operand) func() []uint64 {
			return func() []uint64 {
				d, ds := append([]float64(nil), d0...), make([]int32, nPat)
				ra := &runArgs{dclv: d, dscale: ds, oa: oa, ob: ob, pa: pa, pb: pb, tabA: tables(oa, tabA), tabB: tables(ob, tabB),
					far: far, ph: pa, tabF: tables(far, tabA), catW: catW}
				lnL, rescaled := k.scoreInsertionGammaSoABlock(ra, lo, hi)
				return laneBits(laneBits(laneBits(nil, []float64{lnL, float64(rescaled)}), d), ds)
			}
		}
		prepare := func(op, oq operand) func() []uint64 {
			return func() []uint64 {
				st := append([]float64(nil), sum0...)
				k.prepareGammaSoABlock(st, op, oq, tables(op, prepP), tables(oq, prepQ), lo, hi)
				return laneBits(nil, st)
			}
		}
		derivatives := func(st []float64) func() []uint64 {
			return func() []uint64 {
				d1, d2 := k.derivativesGammaBlock(st, &ex, &lam, catW, lo, hi)
				return laneBits(nil, []float64{d1, d2})
			}
		}
		cases := []struct {
			name string
			run  func() []uint64
		}{
			{"prepare inner-inner", prepare(a, b)},
			{"prepare tip-inner", prepare(tip, b)},
			{"prepare inner-tip", prepare(a, tip)},
			{"prepare tip-tip", prepare(tip, tip2)},
			{"derivatives", derivatives(sum0)},
			{"derivatives, NaN and infinite terms", derivatives(sumSpecial)},
			{"newview inner-inner", newview(a, b)},
			{"newview tip-inner", newview(tip, b)},
			{"newview inner-tip", newview(a, tip)},
			{"newview tip-tip", newview(tip, tip2)},
			{"evaluate inner near, inner far", evaluate(a, b)},
			{"evaluate tip near, inner far", evaluate(tip, b)},
			{"evaluate inner near, tip far", evaluate(a, tip)},
			{"evaluate tip-tip", evaluate(tip, tip2)},
			{"candidate inner-inner step, inner far", candidate(a, b, b)},
			{"candidate inner-inner step, tip far", candidate(a, b, tip)},
			{"candidate tip-inner step, inner far", candidate(tip, b, a)},
			{"candidate inner-tip step, tip far", candidate(a, tip, tip2)},
			{"candidate tip-tip step, inner far", candidate(tip, tip2, b)},
		}
		for _, c := range cases {
			SetLanes(0)
			want := c.run()
			for _, width := range LaneWidths()[1:] {
				SetLanes(width)
				got := c.run()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s, sites [%d, %d): output %d is %x at width %d, %x from the Go loop", c.name, lo, hi, i, got[i], width, want[i])
					}
				}
			}
		}
	}
}

// psrLanePlanes returns a PSR CLV of n sites, each site's four entries of
// one class: ordinary, small enough that the site's Newview rescales,
// subnormal territory, or all −0 (a state sum of −0 terms, which the
// horizontal sum must turn into +0) — with laneValue's signed zeros and
// NaN among them.
func psrLanePlanes(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n*ns)
	for i := 0; i < n; i++ {
		mag := []float64{1, 1, 1, 1e-80, 1e-160, 0}[rng.Intn(6)]
		for x := 0; x < ns; x++ {
			if mag == 0 {
				v[x*n+i] = math.Copysign(0, -1)
			} else {
				v[x*n+i] = laneValue(rng, mag)
			}
		}
	}
	return v
}

// laneSumTable returns a sum table of n sites of per entries each, site
// i's entry e at index at(i, e), whose entries mix ordinary values of
// either sign (so that f ≤ 0 occurs), signed zeros (some sites all zero:
// f = 0) and tiny values, and with special also a few NaN and infinities
// of either sign. Without them every block's (d1, d2) is finite, so a fold
// in another order shows.
func laneSumTable(rng *rand.Rand, n, per int, special bool, at func(i, e int) int) []float64 {
	st := make([]float64, n*per)
	for i := range st {
		switch r := rng.Intn(200); {
		case r < 10:
			st[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		case special && r < 12:
			st[i] = math.NaN()
		case special && r < 14:
			st[i] = math.Inf(rng.Intn(2)*2 - 1)
		case r < 30:
			st[i] = rng.Float64() * 1e-300
		case r < 60:
			st[i] = -rng.Float64()
		default:
			st[i] = rng.Float64()
		}
	}
	for i := 0; i < n; i += 1 + rng.Intn(16) {
		for e := 0; e < per; e++ {
			st[at(i, e)] = 0
		}
	}
	return st
}

// psrLaneSumTable is laneSumTable in the PSR layout, [pattern][eig].
func psrLaneSumTable(rng *rand.Rand, n int, special bool) []float64 {
	return laneSumTable(rng, n, ns, special, func(i, e int) int { return i*ns + e })
}

// gammaLaneSumTable is laneSumTable in the Γ layout, plane-major: entry
// (c, k) of site i at (c·4+k)·n + i.
func gammaLaneSumTable(rng *rand.Rand, n int, special bool) []float64 {
	return laneSumTable(rng, n, gammaCats*ns, special, func(i, e int) int { return e*n + i })
}

// randomEigen gives par a random eigensystem, U and U⁻¹ unrelated, and
// returns the prep tables of all 16 tip codes under it.
func randomEigen(rng *rand.Rand, k *Kernel, par *model.Params) (prepP, prepQ []float64) {
	eig := *par.Eigen
	for i := range eig.U {
		eig.U[i], eig.UInv[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	transposeEigen(&eig)
	par.Eigen = &eig
	prepP, prepQ = make([]float64, 16*ns), make([]float64, 16*ns)
	k.fillPrepTipP(prepP, 0xffff)
	k.fillPrepTipQ(prepQ, 0xffff)
	return prepP, prepQ
}

// TestPSRLanesMatchGoLoop holds every PSR lane routine to the Go loop it
// replaces: each PSR worker runs a block twice, lanes off and lanes on,
// from the same state, over every width 1–256 (so every tail of the
// site-lane derivative) at random offsets, under 1, 2 and
// MaxPSRCategories rate categories, on operands mixing ordinary values
// with signed zeros, NaN, sites whose Newview rescales, subnormal ones and
// all-−0 columns, tip codes from all 16 with tables filled for all 16,
// every tip orientation, a random eigensystem, and sum tables whose sites
// have f ≤ 0, NaN or infinite terms under weights that include 0. Every
// double written — CLV planes, the insertion table, per-site likelihoods,
// sum tables — every scale count and noScale flag, and every block lnL,
// rescaled count and (d1, d2) must have the same bits.
func TestPSRLanesMatchGoLoop(t *testing.T) {
	if !haveLanes {
		t.Skip("this CPU has no AVX2: the lanes never run, the Go loops compute every site")
	}
	defer SetLanes(SetLanes(8))

	const nPat = 300
	rng := rand.New(rand.NewSource(28))
	pd := &msa.PartitionData{Name: "lanes", Tips: [][]msa.State{make([]msa.State, nPat)}, Weights: make([]int, nPat)}
	for i := range pd.Weights {
		pd.Weights[i] = rng.Intn(6)
	}
	par, err := model.NewParams(model.PSR, model.UniformFreqs(), nPat)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(pd, par, 1)
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 3*threadpool.BlockSize; trial++ {
		cats := []int{1, 2, model.MaxPSRCategories}[trial%3]
		w := 1 + trial%threadpool.BlockSize
		lo := rng.Intn(nPat - w + 1)
		hi := lo + w
		for i := range par.SiteCats {
			par.SiteCats[i] = rng.Intn(cats)
		}
		tips := make([]msa.State, nPat)
		for i := range tips {
			tips[i] = msa.State(rng.Intn(16))
		}
		tip := operand{tips: tips, rowMasks: rowMasks{mask: 0xffff}}
		a := operand{clv: psrLanePlanes(rng, nPat), scale: make([]int32, nPat)}
		b := operand{clv: psrLanePlanes(rng, nPat), scale: make([]int32, nPat)}
		for i := range a.scale {
			a.scale[i], b.scale[i] = int32(rng.Intn(3)), int32(rng.Intn(3))
		}
		pa, pb := laneMatrices(rng, cats), laneMatrices(rng, cats)
		tabA, tabB := make([]float64, cats*16*ns), make([]float64, cats*16*ns)
		k.fillTipTable(tabA, pa, 0xffff, nil)
		k.fillTipTable(tabB, pb, 0xffff, nil)
		k.insTab = psrLanePlanes(rng, nPat)
		k.insSubScale = make([]int32, nPat)
		for i := range k.insSubScale {
			k.insSubScale[i] = int32(rng.Intn(2))
		}
		for x := range par.Freqs {
			par.Freqs[x] = 0.05 + rng.Float64()
		}

		prepP, prepQ := randomEigen(rng, k, par)
		sum0, sumSpecial := psrLaneSumTable(rng, nPat, false), psrLaneSumTable(rng, nPat, true)
		ex, lam := make([][ns]float64, cats), make([][ns]float64, cats)
		for c := range ex {
			for kk := 0; kk < ns; kk++ {
				ex[c][kk], lam[c][kk] = rng.Float64(), -3*rng.ExpFloat64()
			}
			ex[c][ns-1], lam[c][ns-1] = 1, 0
		}

		d0 := psrLanePlanes(rng, nPat)
		newview := func(oa, ob operand) func() []uint64 {
			return func() []uint64 {
				d, ds := append([]float64(nil), d0...), make([]int32, nPat)
				var ta, tb []float64
				if oa.tips != nil {
					ta = tabA
				}
				if ob.tips != nil {
					tb = tabB
				}
				k.newviewPSRSoABlock(d, ds, oa, ob, ta, tb, pa, pb, lo, hi)
				return laneBits(laneBits(nil, d), ds)
			}
		}
		evaluate := func(op, oq operand) func() []uint64 {
			return func() []uint64 {
				site := make([]float64, w)
				var tab []float64
				if oq.tips != nil {
					tab = tabB
				}
				k.evaluatePSRSites(site, op, oq, pa, tab, lo)
				lnl := k.evaluatePSRSoABlock(op, oq, pa, tab, lo, hi)
				return laneBits(laneBits(nil, site), []float64{lnl})
			}
		}
		score := func(ob operand) func() []uint64 {
			return func() []uint64 {
				site, noScale := make([]float64, w), make([]bool, w)
				var tab []float64
				if ob.tips != nil {
					tab = tabB
				}
				k.scoreInsertionPSRSites(site, noScale, a, ob, pa, tab, lo)
				lnl, rescaled := k.scoreInsertionPSRSoABlock(a, ob, pa, tab, lo, hi)
				return laneBits(laneBits(laneBits(nil, site), noScale), []float64{lnl, float64(rescaled)})
			}
		}
		prepare := func(op, oq operand) func() []uint64 {
			return func() []uint64 {
				st := append([]float64(nil), sum0...)
				k.preparePSRSoABlock(st, op, oq, prepP, prepQ, lo, hi)
				return laneBits(nil, st)
			}
		}
		cases := []struct {
			name string
			run  func() []uint64
		}{
			{"prepare inner-inner", prepare(a, b)},
			{"prepare tip-inner", prepare(tip, b)},
			{"prepare inner-tip", prepare(a, tip)},
			{"prepare tip-tip", prepare(tip, tip)},
			{"derivatives", func() []uint64 {
				d1, d2 := k.derivativesPSRBlock(sum0, ex, lam, lo, hi)
				return laneBits(nil, []float64{d1, d2})
			}},
			{"derivatives, NaN and infinite terms", func() []uint64 {
				d1, d2 := k.derivativesPSRBlock(sumSpecial, ex, lam, lo, hi)
				return laneBits(nil, []float64{d1, d2})
			}},
			{"newview inner-inner", newview(a, b)},
			{"newview tip-inner", newview(tip, b)},
			{"newview inner-tip", newview(a, tip)},
			{"newview tip-tip", newview(tip, tip)},
			{"evaluate inner near, inner far", evaluate(a, b)},
			{"evaluate tip near, inner far", evaluate(tip, b)},
			{"evaluate inner near, tip far", evaluate(a, tip)},
			{"evaluate tip near, tip far", evaluate(tip, tip)},
			{"insertion table", func() []uint64 {
				k.insTab = append(k.insTab[:0:0], d0...)
				k.prepareInsertionPSRSoABlock(b, pa, nil, lo, hi)
				return laneBits(nil, k.insTab)
			}},
			{"insertion score", score(b)},
			{"insertion score tip", score(tip)},
		}
		for _, c := range cases {
			SetLanes(0)
			want := c.run()
			SetLanes(4)
			got := c.run()
			if len(got) != len(want) {
				t.Fatalf("%s: %d outputs with lanes, %d from the Go loop", c.name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, %d categories, sites [%d, %d): output %d is %x with lanes, %x from the Go loop", c.name, cats, lo, hi, i, got[i], want[i])
				}
			}
		}
	}
}

// TestLaneLogMatchesMathLog holds laneLog to math.Log, bit for bit, on
// 1.2·10^7 values: random bit patterns of either sign (every NaN payload,
// both infinities and zeros among them), random positive doubles over the
// whole exponent range, subnormals, ±0, ±Inf, NaN payloads of both signs,
// likelihood-sized values, and ±32 ulps around √2/2 — the frexp branch —
// at every exponent. It compares against the math.Log of the running Go
// release, so a release that changes math.Log's amd64 code fails here.
func TestLaneLogMatchesMathLog(t *testing.T) {
	if !haveLanes {
		t.Skip("this CPU has no AVX2: math.Log takes every log")
	}
	rng := rand.New(rand.NewSource(29))
	const chunk = 4096
	var vals, got [chunk]float64
	n, checked := 0, 0
	flush := func() {
		copy(got[:], vals[:n])
		laneLog(got[:], n&^3)
		for i := 0; i < n&^3; i++ {
			if want := math.Log(vals[i]); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("log of %x: lanes %x, math.Log %x", math.Float64bits(vals[i]), math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
		checked += n &^ 3
		n = copy(vals[:], vals[n&^3:n])
	}
	add := func(v float64) {
		vals[n] = v
		if n++; n == chunk {
			flush()
		}
	}
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1, -1,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000000),
		math.Float64frombits(0x7FFFFFFFFFFFFFFF), math.Float64frombits(0x000FFFFFFFFFFFFF)}
	for _, v := range special {
		for r := 0; r < 4; r++ {
			add(v)
		}
	}
	hsqrt2 := math.Float64bits(math.Sqrt2 / 2)
	for e := uint64(0); e < 2047; e++ {
		mid := hsqrt2&^(0x7FF<<52) | e<<52
		for d := -32; d <= 32; d++ {
			add(math.Float64frombits(mid + uint64(d)))
		}
	}
	for i := 0; i < 3_000_000; i++ {
		add(math.Float64frombits(rng.Uint64()))
		add(math.Float64frombits(rng.Uint64() & 0x7FFFFFFFFFFFFFFF))
		add(math.Float64frombits(rng.Uint64() & 0x000FFFFFFFFFFFFF))
		add(rng.Float64() * math.Pow(10, -float64(rng.Intn(300))))
	}
	for n&3 != 0 {
		add(1)
	}
	flush()
	if checked < 10_000_000 {
		t.Fatalf("checked %d values, want at least 10^7", checked)
	}
}

// TestLaneExpMatchesMathExp holds expAll — laneExp, with math.Exp for a
// group laneExp refuses — to math.Exp, bit for bit, on about 1.2·10^7
// values: the classes of TestLaneLogMatchesMathLog (random bit patterns of
// either sign, positive doubles over the whole exponent range, subnormals
// of either sign, likelihood-sized values), random doubles over
// [−750, 750], ±0, ±Inf, NaN payloads of both signs, ±64 ulps around the
// overflow threshold 709.78…, amd64's +Inf at 709.7, the denormal and
// underflow range −708…−746, the branch-length arguments of P matrices
// and derivative exponentials, and groups that mix special and normal
// lanes.
// laneExp itself must compute every group of normal values and write no
// lane of a group it refuses. It compares against the math.Exp of the
// running Go release, so a release that changes math.Exp's amd64 code
// fails here.
func TestLaneExpMatchesMathExp(t *testing.T) {
	if !haveExpLanes {
		t.Skip("this CPU has no AVX2 and FMA: math.Exp takes every exponential")
	}
	rng := rand.New(rand.NewSource(31))
	const chunk = 4096
	var vals, got [chunk]float64
	n, checked := 0, 0
	flush := func() {
		copy(got[:], vals[:n])
		expAll(got[:n])
		for i := 0; i < n; i++ {
			if want := math.Exp(vals[i]); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("exp of %x (%g): lanes %x, math.Exp %x", math.Float64bits(vals[i]), vals[i], math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
		checked += n
		n = 0
	}
	add := func(v float64) {
		vals[n] = v
		if n++; n == chunk {
			flush()
		}
	}
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1, -1,
		709.7, 709.78, -708, -708.5, -745, -745.2, -746, -1e300, 1e300,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000000)}
	for _, v := range special {
		// Alone in a group, and at every lane of a group of normal values.
		for r := 0; r < 4; r++ {
			add(v)
		}
		for lane := 0; lane < 4; lane++ {
			for r := 0; r < 4; r++ {
				if r == lane {
					add(v)
				} else {
					add(-0.25 * float64(r+1))
				}
			}
		}
	}
	over := math.Float64bits(7.09782712893384e+02)
	for d := -64; d <= 64; d++ {
		add(math.Float64frombits(over + uint64(d)))
	}
	for i := 0; i < 1_500_000; i++ {
		add(math.Float64frombits(rng.Uint64()))
		add(math.Float64frombits(rng.Uint64() & 0x7FFFFFFFFFFFFFFF))
		add(math.Float64frombits(rng.Uint64() & 0x800FFFFFFFFFFFFF))
		add(rng.Float64() * math.Pow(10, -float64(rng.Intn(300))))
		add((rng.Float64()*2 - 1) * 750)
		add(-708 - 38*rng.Float64())
		add(-rng.Float64() * math.Pow(10, float64(rng.Intn(6)-4)))
		add(-3 * rng.ExpFloat64() * rng.ExpFloat64())
	}
	flush()
	if checked < 10_000_000 {
		t.Fatalf("checked %d values, want at least 10^7", checked)
	}

	normal := make([]float64, 64)
	for i := range normal {
		normal[i] = -rng.Float64() * 10
	}
	if got := laneExp(normal[:63]); got != 60 {
		t.Errorf("laneExp of 63 normal values computed %d, want 60", got)
	}
	group := []float64{-1, -2, -3, -4, -5, 710, -6, -7}
	if got := laneExp(group); got != 4 {
		t.Errorf("laneExp computed %d values before a group with an overflowing lane, want 4", got)
	}
	for j, v := range []float64{-5, 710, -6, -7} {
		if group[4+j] != v {
			t.Errorf("laneExp wrote lane %d of a group it refused", j)
		}
	}
}

// TestPMatrixSetsMatchProbMatrix: the kernels' P-matrix sets — staged in
// batches, their exponentials taken by expAll and assembled by
// laneAssemble or Eigen.Assemble — hold the bits Eigen.ProbMatrix (Γ) and
// Eigen.ProbMatrixT (PSR, the site-rate tables) give each matrix alone,
// with the lanes on and off: for random eigensystems, every category
// count up to MaxPSRCategories, lengths from 0 to ones whose
// exponentials underflow, NaN and +Inf lengths and rates, and schedules
// long enough to span several batches.
func TestPMatrixSetsMatchProbMatrix(t *testing.T) {
	defer SetLanes(SetLanes(8))
	rng := rand.New(rand.NewSource(33))
	lengths := []float64{0, 1e-8, 0.01, 0.1, 1, 7, 100, 1e4, math.NaN(), math.Inf(1)}
	for trial := 0; trial < 40; trial++ {
		var rates [model.NumRates]float64
		for i := range rates {
			rates[i] = 0.05 + 5*rng.Float64()
		}
		var freqs [ns]float64
		sum := 0.0
		for i := range freqs {
			freqs[i] = 0.1 + rng.Float64()
			sum += freqs[i]
		}
		for i := range freqs {
			freqs[i] /= sum
		}
		eig, err := model.NewEigen(rates, freqs)
		if err != nil {
			t.Fatal(err)
		}
		het := []model.Heterogeneity{model.Gamma, model.PSR}[trial%2]
		par, err := model.NewParams(het, freqs, 4)
		if err != nil {
			t.Fatal(err)
		}
		par.Eigen = eig
		if het == model.PSR {
			par.CatRates = make([]float64, 1+rng.Intn(model.MaxPSRCategories))
			for c := range par.CatRates {
				par.CatRates[c] = math.Exp(rng.NormFloat64() * 2)
			}
		}
		if trial%4 >= 2 {
			par.CatRates[rng.Intn(len(par.CatRates))] = math.NaN()
			par.CatRates[rng.Intn(len(par.CatRates))] = math.Inf(1)
		}
		k := &Kernel{par: par, psr: het == model.PSR}
		steps := make([]Step, 20+rng.Intn(20))
		for i := range steps {
			steps[i].TA, steps[i].TB = lengths[rng.Intn(len(lengths))]*rng.Float64(), lengths[rng.Intn(len(lengths))]
		}
		rootT, rate := lengths[rng.Intn(len(lengths))], []float64{math.Exp(rng.NormFloat64()), math.NaN(), math.Inf(1)}[trial%3]
		for _, lanes := range []bool{false, true} {
			SetLanes(4 * b2i(lanes))
			for _, bl := range lengths {
				got := make([][ns * ns]float64, len(par.CatRates))
				k.probMatrices(bl, got)
				for c, r := range par.CatRates {
					var want [ns * ns]float64
					if het == model.PSR {
						eig.ProbMatrixT(bl, r, &want)
					} else {
						eig.ProbMatrix(bl, r, &want)
					}
					if !sameBits(got[c][:], want[:]) {
						t.Fatalf("lanes=%v %v t=%g category %d of %d: the set's matrix differs from Eigen's", lanes, het, bl, c, len(par.CatRates))
					}
				}
			}
			got := make([][ns * ns]float64, 2*len(steps)+1)
			k.fillSitePMatrices(got, steps, rootT, rate)
			for i := range got {
				bl := rootT
				if i < 2*len(steps) {
					bl = [2]float64{steps[i/2].TA, steps[i/2].TB}[i%2]
				}
				var want [ns * ns]float64
				eig.ProbMatrixT(bl, rate, &want)
				if !sameBits(got[i][:], want[:]) {
					t.Fatalf("lanes=%v: site-rate matrix %d of %d (t=%g) differs from Eigen.ProbMatrixT", lanes, i, len(got), bl)
				}
			}
		}
	}
}

// randomTableEigen returns an eigensystem with every field random and
// unrelated — entries in [−2, 2) with a sixth of them ±0 — so that the
// sums of a P matrix fall below 0 and above 1, and products and sums
// reach −0; UT, UInvT and StatT are its transposes.
func randomTableEigen(rng *rand.Rand) *model.Eigen {
	e := new(model.Eigen)
	draw := func() float64 {
		if rng.Intn(6) == 0 {
			return math.Copysign(0, float64(rng.Intn(2)*2-1))
		}
		return 4*rng.Float64() - 2
	}
	for i := range e.U {
		e.U[i], e.UInv[i], e.Stat[i] = draw(), draw(), draw()
	}
	transposeEigen(e)
	return e
}

// transposeEigen sets e's UT, UInvT and StatT from U, UInv and Stat, as
// model.NewEigen does.
func transposeEigen(e *model.Eigen) {
	for i := 0; i < ns; i++ {
		for j := 0; j < ns; j++ {
			e.UT[j*ns+i], e.UInvT[j*ns+i], e.StatT[j*ns+i] = e.U[i*ns+j], e.UInv[i*ns+j], e.Stat[i*ns+j]
		}
	}
}

// defaultNaN is the NaN the hardware makes of ∞·0 or ∞ − ∞. It is the
// only NaN the set-up table tests use, so every NaN their sums meet has
// the same bits: which of two different NaNs a sum carries depends on
// the operand order the Go compiler picks for the reference loop, which
// the source does not fix (a -race build picks another).
var defaultNaN = math.Float64frombits(0xfff8_0000_0000_0000)

// TestLaneAssembleMatchesAssemble holds laneAssemble to Eigen.Assemble,
// both layouts, by bits: batches of 1–32 matrices whose exponentials are
// drawn from {+0, a subnormal, 0.5, 1, NaN, +Inf}, over random
// eigensystems whose sums reach both arms of the clamp (and the clamp's
// NaN pass-through) and whose products are −0 at times.
func TestLaneAssembleMatchesAssemble(t *testing.T) {
	if !haveLanes {
		t.Skip("this CPU has no AVX2: Eigen.Assemble builds every matrix")
	}
	rng := rand.New(rand.NewSource(39))
	exps := []float64{0, 5e-324, 0.5, 1, defaultNaN, math.Inf(1)}
	var low, high, nan int
	for trial := 0; trial < 400; trial++ {
		e := randomTableEigen(rng)
		n := 1 + trial%pSetBatch
		ex := make([]float64, 3*n)
		for i := range ex {
			ex[i] = exps[rng.Intn(len(exps))]
		}
		for _, transpose := range []bool{false, true} {
			got := make([][ns * ns]float64, n)
			u, stat := &e.U, &e.Stat
			if transpose {
				u, stat = &e.UT, &e.StatT
			}
			laneAssemble(got, ex, u, &e.UInv, stat, transpose)
			for i := range got {
				var want [ns * ns]float64
				e.Assemble((*[3]float64)(ex[3*i:]), &want, transpose)
				if !sameBits(got[i][:], want[:]) {
					t.Fatalf("trial %d, transpose=%v, matrix %d of %d (ex %v): laneAssemble wrote %v, Eigen.Assemble %v", trial, transpose, i, n, ex[3*i:3*i+3], got[i], want)
				}
				for _, v := range want {
					switch {
					case v == 0:
						low++
					case v == 1:
						high++
					case v != v:
						nan++
					}
				}
			}
		}
	}
	if low == 0 || high == 0 || nan == 0 {
		t.Errorf("the clamp's arms were not all reached: %d entries at 0, %d at 1, %d NaN", low, high, nan)
	}
}

// TestLaneTipTableMatchesGoFill holds laneTipTable to fillTipTable's Go
// loop, both layouts, by bits: Γ (four row-major matrices, one mask for
// all) and PSR (1 to MaxPSRCategories transposed matrices, a mask per
// category, some of them empty), masks 0, single codes, 0xFFFF and
// random ones, over P entries that include NaN, ±Inf (times a tip
// vector's 0, another NaN) and −0. Both fills start from a table of NaN
// sentinels, and every entry of a code outside its category's mask must
// still hold the sentinel.
func TestLaneTipTableMatchesGoFill(t *testing.T) {
	if !haveLanes {
		t.Skip("this CPU has no AVX2: the Go loop fills every tip table")
	}
	defer SetLanes(SetLanes(8))
	rng := rand.New(rand.NewSource(39))
	sentinel := math.Float64frombits(0x7ff8_0000_dead_beef)
	special := []float64{defaultNaN, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	masks := []uint16{0, 1, 1 << 5, 1 << 15, 0xffff}
	for trial := 0; trial < 600; trial++ {
		het := []model.Heterogeneity{model.Gamma, model.PSR}[trial%2]
		k := &Kernel{par: &model.Params{Het: het}, psr: het == model.PSR}
		for s := msa.State(1); s <= 15; s++ {
			k.tipVec[s] = s.TipVector()
		}
		nc := gammaCats
		if het == model.PSR {
			nc = 1 + rng.Intn(model.MaxPSRCategories)
		}
		pm := make([][ns * ns]float64, nc)
		for c := range pm {
			for i := range pm[c] {
				pm[c][i] = 2*rng.Float64() - 0.5
				if rng.Intn(8) == 0 {
					pm[c][i] = special[rng.Intn(len(special))]
				}
			}
		}
		pick := func() uint16 {
			if rng.Intn(2) == 0 {
				return masks[rng.Intn(len(masks))]
			}
			return uint16(rng.Intn(1 << 16))
		}
		mask := pick()
		var catMask []uint16
		if het == model.PSR {
			catMask = make([]uint16, nc)
			for c := range catMask {
				catMask[c] = pick()
			}
		}
		tabs := [2][]float64{}
		for i, lanes := range []bool{false, true} {
			tabs[i] = make([]float64, nc*16*ns)
			for j := range tabs[i] {
				tabs[i][j] = sentinel
			}
			SetLanes(4 * b2i(lanes))
			k.fillTipTable(tabs[i], pm, mask, catMask)
		}
		if !sameBits(tabs[0], tabs[1]) {
			for j := range tabs[0] {
				if math.Float64bits(tabs[0][j]) != math.Float64bits(tabs[1][j]) {
					t.Fatalf("trial %d, %v, %d categories: entry %d (category %d, code %d, state %d): lanes %v, Go %v", trial, het, nc, j, j/(16*ns), j/ns%16, j%ns, tabs[1][j], tabs[0][j])
				}
			}
		}
		for c := 0; c < nc; c++ {
			cm := mask
			if catMask != nil {
				cm = catMask[c]
			}
			for code := 0; code < 16; code++ {
				if cm>>code&1 != 0 {
					continue
				}
				for x := 0; x < ns; x++ {
					if v := tabs[1][(c*16+code)*ns+x]; math.Float64bits(v) != math.Float64bits(sentinel) {
						t.Fatalf("trial %d, %v: category %d, code %d outside the mask %#04x was written: %v", trial, het, c, code, cm, v)
					}
				}
			}
		}
	}
}

// sameBits reports whether a and b hold the same bits.
func sameBits(a, b []float64) bool {
	return slices.Equal(laneBits(nil, a), laneBits(nil, b))
}

// TestLaneSitesCounted: on a CPU with AVX2 an evaluation reports the sites
// its lanes computed — under Γ every block's w &^ 3 at width 4 and every
// site at width 8, under PSR every site at either width, there being no
// tail — and with the lanes off it reports none, so a run that fell back
// to the Go loops says so in its own counters.
func TestLaneSitesCounted(t *testing.T) {
	if !haveLanes {
		t.Skip("this CPU has no AVX2: the lanes never run")
	}
	defer SetLanes(SetLanes(8))
	const nPat = 2*threadpool.BlockSize + 7
	pd := &msa.PartitionData{Name: "lanes", Tips: [][]msa.State{make([]msa.State, nPat)}, Weights: make([]int, nPat)}
	for i := range pd.Weights {
		pd.Tips[0][i], pd.Weights[i] = msa.StateA, 1
	}
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		par, err := model.NewParams(het, model.UniformFreqs(), nPat)
		if err != nil {
			t.Fatal(err)
		}
		k, err := NewKernel(pd, par, 1)
		if err != nil {
			t.Fatal(err)
		}
		k.LoadTipAsInner(0, 0)
		for _, width := range LaneWidths() {
			SetLanes(width)
			before := k.Counters()
			k.Evaluate(TipAt(0), InnerAt(0), 0.1)
			k.Flush(nil)
			fp := k.Counters()
			sites, lanes := fp[telemetry.RankSites]-before[telemetry.RankSites], fp[telemetry.RankLaneSites]-before[telemetry.RankLaneSites]
			want := int64(nPat - 7 + 4)
			switch {
			case width == 0:
				want = 0
			case het == model.PSR, width == 8:
				want = nPat
			}
			if sites != nPat || lanes != want {
				t.Errorf("%v, width %d: one evaluation counted %d sites, %d in lanes; want %d and %d", het, width, sites, lanes, nPat, want)
			}
		}
	}
}

// BenchmarkGammaLanes times each Γ worker over one full block (256 sites,
// all four categories, ordinary values) — the sum-table fill and
// derivative among them, and the Newview of a cherry — and the set-up
// tables (a 32-matrix P set, a tip table of all 16 codes), at every lane
// width the CPU runs: a diagnostic of the routines, not evidence of a gain (that is the
// end-to-end benchmark's).
func BenchmarkGammaLanes(b *testing.B) {
	const nPat = threadpool.BlockSize
	rng := rand.New(rand.NewSource(5))
	planes := func() []float64 {
		v := make([]float64, nPat*gammaCats*ns)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	pd := &msa.PartitionData{Name: "lanes", Tips: [][]msa.State{make([]msa.State, nPat)}, Weights: make([]int, nPat)}
	for i := range pd.Tips[0] {
		pd.Tips[0][i] = msa.State(1 << rng.Intn(4))
	}
	par, err := model.NewParams(model.Gamma, model.UniformFreqs(), nPat)
	if err != nil {
		b.Fatal(err)
	}
	k, err := NewKernel(pd, par, 1)
	if err != nil {
		b.Fatal(err)
	}
	a := operand{clv: planes(), scale: make([]int32, nPat)}
	c := operand{clv: planes(), scale: make([]int32, nPat)}
	tip := operand{tips: pd.Tips[0], rowMasks: rowMasks{mask: 0xffff}}
	pm := make([][ns * ns]float64, gammaCats)
	for i := range pm {
		par.Eigen.ProbMatrix(0.1, par.CatRates[i], &pm[i])
	}
	tab := make([]float64, gammaCats*16*ns)
	k.fillTipTable(tab, pm, 0xffff, nil)
	k.insTab = planes()
	d, ds := make([]float64, nPat*gammaCats*ns), make([]int32, nPat)
	site := make([]float64, nPat)
	for i := range pd.Weights {
		pd.Weights[i] = 1
	}
	sum := planes()
	prepP, prepQ := make([]float64, 16*ns), make([]float64, 16*ns)
	k.fillPrepTipP(prepP, 0xffff)
	k.fillPrepTipQ(prepQ, 0xffff)
	var ra runArgs
	k.exponentials(&ra, 0.1)
	ex, lam := (*[gammaCats][ns]float64)(ra.ex), (*[gammaCats][ns]float64)(ra.lam)
	// candidate times one candidate block, its step a-c and the given far
	// side.
	candidate := func(far operand) func() {
		var tabF []float64
		if far.tips != nil {
			tabF = tab
		}
		cand := &runArgs{dclv: d, dscale: ds, oa: a, ob: c, pa: pm, pb: pm, far: far, ph: pm, tabF: tabF, catW: 0.25}
		return func() { k.scoreInsertionGammaSoABlock(cand, 0, nPat) }
	}
	workers := []struct {
		name string
		run  func()
	}{
		{"prepare", func() { k.prepareGammaSoABlock(d, a, c, nil, nil, 0, nPat) }},
		{"prepare-tip", func() { k.prepareGammaSoABlock(d, tip, c, prepP, nil, 0, nPat) }},
		{"derivatives", func() { k.derivativesGammaBlock(sum, ex, lam, ra.catW, 0, nPat) }},
		{"newview", func() { k.newviewGammaSoABlock(d, ds, a, c, nil, nil, pm, pm, 0, nPat) }},
		{"newview-tip", func() { k.newviewGammaSoABlock(d, ds, tip, c, tab, nil, pm, pm, 0, nPat) }},
		{"newview-tip-tip", func() { k.newviewGammaSoABlock(d, ds, tip, tip, tab, tab, pm, pm, 0, nPat) }},
		{"evaluate", func() { k.evaluateGammaSites(site, a, c, pm, nil, 0.25, 0) }},
		{"evaluate-tip-near", func() { k.evaluateGammaSites(site, tip, c, pm, nil, 0.25, 0) }},
		{"evaluate-tip-far", func() { k.evaluateGammaSites(site, a, tip, pm, tab, 0.25, 0) }},
		{"candidate", candidate(c)},
		{"candidate-tip-far", candidate(tip)},
		{"p-set", func() { benchPSet(par.Eigen, false) }},
		{"tip-table", func() { k.fillTipTable(tab, pm, 0xffff, nil) }},
	}
	defer SetLanes(SetLanes(0))
	for _, w := range workers {
		for _, width := range LaneWidths() {
			b.Run(fmt.Sprintf("%s/width=%d", w.name, width), func(b *testing.B) {
				SetLanes(width)
				for i := 0; i < b.N; i++ {
					w.run()
				}
			})
		}
	}
}

// BenchmarkPSRLanes times each PSR worker that has state lanes over one
// full block (256 sites, MaxPSRCategories categories, ordinary values),
// at every lane width the CPU runs (4 and 8 run the same state lanes), the single-site recursion of a 16-taxon schedule, and
// the set-up tables (a 32-matrix transposed P set, a tip table under its
// taxon's category masks): a diagnostic of the routines, not evidence of
// a gain (that is the end-to-end benchmark's).
func BenchmarkPSRLanes(b *testing.B) {
	const nPat = threadpool.BlockSize
	rng := rand.New(rand.NewSource(5))
	planes := func() []float64 {
		v := make([]float64, nPat*ns)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	const nTaxa = 16
	pd := &msa.PartitionData{Name: "lanes", Tips: make([][]msa.State, nTaxa), Weights: make([]int, nPat)}
	for taxon := range pd.Tips {
		pd.Tips[taxon] = make([]msa.State, nPat)
		for i := range pd.Tips[taxon] {
			pd.Tips[taxon][i] = msa.State(1 << rng.Intn(4))
		}
	}
	for i := range pd.Weights {
		pd.Weights[i] = 1
	}
	par, err := model.NewParams(model.PSR, model.UniformFreqs(), nPat)
	if err != nil {
		b.Fatal(err)
	}
	par.CatRates = make([]float64, model.MaxPSRCategories)
	for c := range par.CatRates {
		par.CatRates[c] = 0.1 + 0.2*float64(c)
	}
	for i := range par.SiteCats {
		par.SiteCats[i] = rng.Intn(model.MaxPSRCategories)
	}
	k, err := NewKernel(pd, par, nTaxa-2)
	if err != nil {
		b.Fatal(err)
	}
	a := operand{clv: planes(), scale: make([]int32, nPat)}
	c := operand{clv: planes(), scale: make([]int32, nPat)}
	tip := operand{tips: pd.Tips[0], rowMasks: rowMasks{mask: 0xffff}}
	pm := make([][ns * ns]float64, model.MaxPSRCategories)
	k.probMatrices(0.1, pm)
	tab := make([]float64, model.MaxPSRCategories*16*ns)
	k.fillTipTable(tab, pm, 0xffff, nil)
	k.insTab, k.insSubScale = planes(), make([]int32, nPat)
	d, ds := make([]float64, nPat*ns), make([]int32, nPat)
	site, noScale := make([]float64, nPat), make([]bool, nPat)

	// A caterpillar schedule over the 16 tips for the single-site recursion.
	steps := []Step{{Dst: InnerAt(0), A: TipAt(0), B: TipAt(1), TA: 0.1, TB: 0.2}}
	for i := 1; i < nTaxa-2; i++ {
		steps = append(steps, Step{Dst: InnerAt(i), A: InnerAt(i - 1), B: TipAt(i + 1), TA: 0.05, TB: 0.3})
	}
	scr := k.siteScratchOf(0)
	k.fillSitePMatrices(scr.pm, steps, 0.1, 1)
	sum := planes()
	prepP, prepQ := make([]float64, 16*ns), make([]float64, 16*ns)
	k.fillPrepTipP(prepP, 0xffff)
	k.fillPrepTipQ(prepQ, 0xffff)
	var ra runArgs
	k.exponentials(&ra, 0.1)

	workers := []struct {
		name string
		run  func()
	}{
		{"newview", func() { k.newviewPSRSoABlock(d, ds, a, c, nil, nil, pm, pm, 0, nPat) }},
		{"newview-tip", func() { k.newviewPSRSoABlock(d, ds, tip, c, tab, nil, pm, pm, 0, nPat) }},
		{"newview-tip-tip", func() { k.newviewPSRSoABlock(d, ds, tip, tip, tab, tab, pm, pm, 0, nPat) }},
		{"evaluate", func() { k.evaluatePSRSites(site, a, c, pm, nil, 0) }},
		{"evaluate-tip-far", func() { k.evaluatePSRSites(site, a, tip, pm, tab, 0) }},
		{"insertion-table", func() { k.prepareInsertionPSRSoABlock(c, pm, nil, 0, nPat) }},
		{"score", func() { k.scoreInsertionPSRSites(site, noScale, a, c, pm, nil, 0) }},
		{"score-tip", func() { k.scoreInsertionPSRSites(site, noScale, a, tip, pm, tab, 0) }},
		{"site-recursion", func() { k.siteLnL(scr, scr.pm, steps, InnerAt(nTaxa-3), TipAt(nTaxa-1), 0) }},
		{"prepare", func() { k.preparePSRSoABlock(d, a, c, nil, nil, 0, nPat) }},
		{"prepare-tip", func() { k.preparePSRSoABlock(d, tip, c, prepP, prepQ, 0, nPat) }},
		{"derivatives", func() { k.derivativesPSRBlock(sum, ra.ex, ra.lam, 0, nPat) }},
		{"p-set", func() { benchPSet(par.Eigen, true) }},
		{"tip-table", func() { k.fillTipTable(tab, pm, k.tipMasks[0].mask, k.tipMasks[0].catMask) }},
	}
	defer SetLanes(SetLanes(0))
	for _, w := range workers {
		for _, width := range LaneWidths() {
			b.Run(fmt.Sprintf("%s/width=%d", w.name, width), func(b *testing.B) {
				SetLanes(width)
				for i := 0; i < b.N; i++ {
					w.run()
				}
			})
		}
	}
}

// benchSet is the destination of benchPSet.
var benchSet = make([][ns * ns]float64, pSetBatch)

// benchPSet builds one full batch of P matrices, rates 0.1 to 1.65 at
// branch length 0.1: the set-up of a P-matrix miss under
// MaxPSRCategories and more.
func benchPSet(e *model.Eigen, transpose bool) {
	var set pSet
	set.start(e, benchSet, transpose)
	for i := range benchSet {
		set.add(0.1, 0.1+0.05*float64(i))
	}
	set.flush()
}

// BenchmarkLaneExp times the exponentials of one block of arguments in
// the range of derivative and P-matrix exponents, math.Exp one at a time
// against expAll, per value: a diagnostic.
func BenchmarkLaneExp(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	src := make([]float64, threadpool.BlockSize)
	for i := range src {
		src[i] = -rng.ExpFloat64() * 3
	}
	v := make([]float64, len(src))
	defer SetLanes(SetLanes(0))
	for _, lanes := range []bool{false, true} {
		if lanes && !haveExpLanes {
			continue
		}
		b.Run(fmt.Sprintf("lanes=%v", lanes), func(b *testing.B) {
			SetLanes(4 * b2i(lanes))
			for i := 0; i < b.N; i++ {
				copy(v, src)
				expAll(v)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/value")
		})
	}
}

// BenchmarkLaneLog times the per-site logs of one block, math.Log one at a
// time against laneLog four at a time, per value: a diagnostic.
func BenchmarkLaneLog(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	src := make([]float64, threadpool.BlockSize)
	for i := range src {
		src[i] = rng.Float64() * math.Pow(10, -float64(rng.Intn(40)))
	}
	v := make([]float64, len(src))
	defer SetLanes(SetLanes(0))
	for _, lanes := range []bool{false, true} {
		if lanes && !haveLanes {
			continue
		}
		b.Run(fmt.Sprintf("lanes=%v", lanes), func(b *testing.B) {
			SetLanes(4 * b2i(lanes))
			for i := 0; i < b.N; i++ {
				copy(v, src)
				logSites(v)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/value")
		})
	}
}
