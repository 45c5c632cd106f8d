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

// laneMatrices returns a random P-matrix set, one matrix per Γ category.
func laneMatrices(rng *rand.Rand) [][ns * ns]float64 {
	pm := make([][ns * ns]float64, gammaCats)
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
		tip := operand{tips: tips, mask: 0xffff}
		a := operand{clv: lanePlanes(rng, nPat), scale: make([]int32, nPat)}
		b := operand{clv: lanePlanes(rng, nPat), scale: make([]int32, nPat)}
		for i := range a.scale {
			a.scale[i], b.scale[i] = int32(rng.Intn(3)), int32(rng.Intn(3))
		}
		pa, pb := laneMatrices(rng), laneMatrices(rng)
		tabA, tabB := make([]float64, gammaCats*16*ns), make([]float64, gammaCats*16*ns)
		k.fillTipTable(tabA, pa, 0xffff)
		k.fillTipTable(tabB, pb, 0xffff)
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

// TestLaneSitesCounted: on a CPU with AVX2 a Γ evaluation reports the sites
// its lanes computed — every block's w &^ 3 per operation — and with the
// lanes off it reports none, so a run that fell back to the Go loops says
// so in its own counters.
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
	par, err := model.NewParams(model.Gamma, model.UniformFreqs(), nPat)
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
		k.Evaluate(TipRef(0), InnerRef(0), 0.1)
		k.Flush(nil)
		fp := k.FastPath()
		gamma, lanes := fp.GammaSites-before.GammaSites, fp.LaneSites-before.LaneSites
		want := int64(nPat - 7 + 4)
		if !on {
			want = 0
		}
		if gamma != nPat || lanes != want {
			t.Errorf("lanes on=%v: one evaluation counted %d Γ sites, %d in lanes; want %d and %d", on, gamma, lanes, nPat, want)
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
	tip := operand{tips: pd.Tips[0], mask: 0xffff}
	pm := make([][ns * ns]float64, gammaCats)
	for i := range pm {
		par.Eigen.ProbMatrix(0.1, par.CatRates[i], &pm[i])
	}
	tab := make([]float64, gammaCats*16*ns)
	k.fillTipTable(tab, pm, 0xffff)
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
