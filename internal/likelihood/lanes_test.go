package likelihood

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/msa"
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
// (lanes.go): each Γ worker with lanes runs a block twice, lanes off and
// lanes on, from the same state, over every width 1–256 (so every tail
// length) at random offsets, on operands mixing ordinary values with
// signed zeros, NaN, sites whose products fall below ScaleThreshold and
// subnormal ones, tip codes from all 16 with tables filled for all 16, and
// both tip orientations. Every double written — the CLV planes, scaling
// included; the per-site likelihoods — every scale count and every
// noScale flag must have the same bits.
func TestLanesMatchGoLoop(t *testing.T) {
	if !haveLanes {
		t.Skip("this CPU has no AVX2: the lanes never run, the Go loops compute every site")
	}
	defer SetLanes(SetLanes(true))

	const nPat = 300
	rng := rand.New(rand.NewSource(27))
	pd := &msa.PartitionData{Name: "lanes", Tips: [][]msa.State{make([]msa.State, nPat)}, Weights: make([]int, nPat)}
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
		tips := make([]msa.State, nPat)
		for i := range tips {
			tips[i] = msa.State(rng.Intn(16))
		}
		tip := operand{tips: tips, rowMasks: rowMasks{mask: 0xffff}}
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

		// The state every run starts from: destination planes, per-site
		// likelihoods and scale decisions already holding values.
		d0 := lanePlanes(rng, nPat)
		site0 := make([]float64, w)
		noScale0 := make([]bool, w)
		for j := range site0 {
			site0[j] = rng.Float64()
			noScale0[j] = rng.Intn(4) == 0
		}
		newview := func(run func(d []float64, ds []int32)) []uint64 {
			d, ds := append([]float64(nil), d0...), make([]int32, nPat)
			run(d, ds)
			return laneBits(laneBits(nil, d), ds)
		}
		sites := func(run func(site []float64, noScale []bool)) []uint64 {
			site, noScale := append([]float64(nil), site0...), append([]bool(nil), noScale0...)
			run(site, noScale)
			return laneBits(laneBits(nil, site), noScale)
		}
		cases := []struct {
			name string
			run  func() []uint64
		}{
			{"newview inner-inner", func() []uint64 {
				return newview(func(d []float64, ds []int32) { k.newviewGammaSoABlock(d, ds, a, b, pa, pb, lo, hi) })
			}},
			{"newview tip-inner", func() []uint64 {
				return newview(func(d []float64, ds []int32) {
					k.newviewGammaTipInnerSoABlock(d, ds, tip, b, tabA, nil, pa, pb, lo, hi)
				})
			}},
			{"newview inner-tip", func() []uint64 {
				return newview(func(d []float64, ds []int32) {
					k.newviewGammaTipInnerSoABlock(d, ds, a, tip, nil, tabB, pa, pb, lo, hi)
				})
			}},
			{"evaluate inner near", func() []uint64 {
				return sites(func(site []float64, _ []bool) { k.evaluateGammaSites(site, a, b, pa, catW, lo) })
			}},
			{"evaluate tip near", func() []uint64 {
				return sites(func(site []float64, _ []bool) { k.evaluateGammaSites(site, tip, b, pa, catW, lo) })
			}},
			{"evaluate tip far", func() []uint64 {
				return sites(func(site []float64, _ []bool) { k.evaluateGammaTipSites(site, a, tip, tabA, catW, lo) })
			}},
			{"insertion score", func() []uint64 {
				return sites(func(site []float64, noScale []bool) {
					k.scoreInsertionGammaSites(site, noScale, a, b, pa, catW, lo)
				})
			}},
			{"insertion score tip", func() []uint64 {
				return sites(func(site []float64, noScale []bool) {
					k.scoreInsertionGammaTipSites(site, noScale, a, tip, pa, tabB, catW, lo)
				})
			}},
		}
		for _, c := range cases {
			SetLanes(false)
			want := c.run()
			SetLanes(true)
			got := c.run()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, sites [%d, %d): output %d is %x with lanes, %x from the Go loop", c.name, lo, hi, i, got[i], want[i])
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

// TestPSRLanesMatchGoLoop holds every PSR state-lane routine to the Go loop
// it replaces: each PSR worker runs a block twice, lanes off and lanes on,
// from the same state, over every width 1–256 at random offsets, under 1, 2
// and MaxPSRCategories rate categories, on operands mixing ordinary values
// with signed zeros, NaN, sites whose Newview rescales, subnormal ones and
// all-−0 columns, tip codes from all 16 with tables filled for all 16,
// and every tip orientation. Every double written — CLV planes, the
// insertion table, per-site likelihoods — every scale count and noScale
// flag, and every block lnL and rescaled count must have the same bits.
func TestPSRLanesMatchGoLoop(t *testing.T) {
	if !haveLanes {
		t.Skip("this CPU has no AVX2: the lanes never run, the Go loops compute every site")
	}
	defer SetLanes(SetLanes(true))

	const nPat = 300
	rng := rand.New(rand.NewSource(28))
	pd := &msa.PartitionData{Name: "lanes", Tips: [][]msa.State{make([]msa.State, nPat)}, Weights: make([]int, nPat)}
	for i := range pd.Weights {
		pd.Weights[i] = 1 + rng.Intn(5)
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
		cases := []struct {
			name string
			run  func() []uint64
		}{
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
			SetLanes(false)
			want := c.run()
			SetLanes(true)
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

// TestLaneSitesCounted: on a CPU with AVX2 an evaluation reports the sites
// its lanes computed — under Γ every block's w &^ 3, under PSR every site,
// there being no tail — and with the lanes off it reports none, so a run
// that fell back to the Go loops says so in its own counters.
func TestLaneSitesCounted(t *testing.T) {
	if !haveLanes {
		t.Skip("this CPU has no AVX2: the lanes never run")
	}
	defer SetLanes(SetLanes(true))
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
		for _, on := range []bool{true, false} {
			SetLanes(on)
			before := k.FastPath()
			k.Evaluate(TipAt(0), InnerAt(0), 0.1)
			k.Flush(nil)
			fp := k.FastPath()
			sites, lanes := fp.Sites-before.Sites, fp.LaneSites-before.LaneSites
			want := int64(nPat - 7 + 4)
			switch {
			case !on:
				want = 0
			case het == model.PSR:
				want = nPat
			}
			if sites != nPat || lanes != want {
				t.Errorf("%v, lanes on=%v: one evaluation counted %d sites, %d in lanes; want %d and %d", het, on, sites, lanes, nPat, want)
			}
		}
	}
}

// BenchmarkGammaLanes times each Γ worker that has lanes over one full
// block (256 sites, all four categories, ordinary values), lanes off and
// on: a diagnostic of the routines, not evidence of a gain (that is the
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
	site, noScale := make([]float64, nPat), make([]bool, nPat)
	workers := []struct {
		name string
		run  func()
	}{
		{"newview", func() { k.newviewGammaSoABlock(d, ds, a, c, pm, pm, 0, nPat) }},
		{"newview-tip", func() { k.newviewGammaTipInnerSoABlock(d, ds, tip, c, tab, nil, pm, pm, 0, nPat) }},
		{"evaluate", func() { k.evaluateGammaSites(site, a, c, pm, 0.25, 0) }},
		{"evaluate-tip-near", func() { k.evaluateGammaSites(site, tip, c, pm, 0.25, 0) }},
		{"evaluate-tip-far", func() { k.evaluateGammaTipSites(site, a, tip, tab, 0.25, 0) }},
		{"score", func() { k.scoreInsertionGammaSites(site, noScale, a, c, pm, 0.25, 0) }},
		{"score-tip", func() { k.scoreInsertionGammaTipSites(site, noScale, a, tip, pm, tab, 0.25, 0) }},
	}
	defer SetLanes(SetLanes(false))
	for _, w := range workers {
		for _, lanes := range []bool{false, true} {
			if lanes && !haveLanes {
				continue
			}
			b.Run(fmt.Sprintf("%s/lanes=%v", w.name, lanes), func(b *testing.B) {
				SetLanes(lanes)
				for i := 0; i < b.N; i++ {
					w.run()
				}
			})
		}
	}
}

// BenchmarkPSRLanes times each PSR worker that has state lanes over one
// full block (256 sites, MaxPSRCategories categories, ordinary values),
// lanes off and on, and the single-site recursion of a 16-taxon schedule:
// a diagnostic of the routines, not evidence of a gain (that is the
// end-to-end benchmark's).
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
	}
	defer SetLanes(SetLanes(false))
	for _, w := range workers {
		for _, lanes := range []bool{false, true} {
			if lanes && !haveLanes {
				continue
			}
			b.Run(fmt.Sprintf("%s/lanes=%v", w.name, lanes), func(b *testing.B) {
				SetLanes(lanes)
				for i := 0; i < b.N; i++ {
					w.run()
				}
			})
		}
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
	defer SetLanes(SetLanes(false))
	for _, lanes := range []bool{false, true} {
		if lanes && !haveLanes {
			continue
		}
		b.Run(fmt.Sprintf("lanes=%v", lanes), func(b *testing.B) {
			SetLanes(lanes)
			for i := 0; i < b.N; i++ {
				copy(v, src)
				logSites(v)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/value")
		})
	}
}
