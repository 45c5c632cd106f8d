package model

import (
	"math"
	"math/rand"
	"testing"
)

func TestDiscreteGammaMeansBasic(t *testing.T) {
	for _, alpha := range []float64{0.05, 0.3, 1, 2.7, 50} {
		rates, err := DiscreteGammaMeans(alpha, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(rates) != 4 {
			t.Fatalf("alpha=%g: %d rates", alpha, len(rates))
		}
		mean := 0.0
		for i, r := range rates {
			if r <= 0 {
				t.Fatalf("alpha=%g: rate %d = %g", alpha, i, r)
			}
			if i > 0 && rates[i] <= rates[i-1] {
				t.Fatalf("alpha=%g: rates not increasing: %v", alpha, rates)
			}
			mean += r
		}
		mean /= 4
		if math.Abs(mean-1) > 1e-9 {
			t.Fatalf("alpha=%g: mean rate %g", alpha, mean)
		}
	}
}

func TestDiscreteGammaKnownAlphaOne(t *testing.T) {
	// For α=1 (exponential), category means are analytic:
	// m_i = 4·(F(q_{i+1}) − F(q_i)) with F(x)=P(2, x) for the mean of the
	// exponential over quantile slices. Compare against direct Monte Carlo.
	rates, err := DiscreteGammaMeans(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const samples = 2_000_000
	var sums [4]float64
	var counts [4]float64
	for i := 0; i < samples; i++ {
		x := rng.ExpFloat64()
		// Quantile slice of the exponential: q = 1 − e^{-x}.
		q := 1 - math.Exp(-x)
		c := int(q * 4)
		if c > 3 {
			c = 3
		}
		sums[c] += x
		counts[c]++
	}
	for c := 0; c < 4; c++ {
		mc := sums[c] / counts[c]
		if math.Abs(mc-rates[c]) > 0.01*(1+rates[c]) {
			t.Errorf("category %d: analytic %g vs Monte Carlo %g", c, rates[c], mc)
		}
	}
}

func TestDiscreteGammaExtremes(t *testing.T) {
	// Large α → rates converge to 1 (no heterogeneity).
	rates, err := DiscreteGammaMeans(500, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rates {
		if math.Abs(r-1) > 0.1 {
			t.Fatalf("alpha=500: rate %g far from 1", r)
		}
	}
	// Small α → extreme spread.
	rates, err = DiscreteGammaMeans(0.05, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rates[3]/rates[0] < 100 {
		t.Fatalf("alpha=0.05: spread too small: %v", rates)
	}
	if _, err := DiscreteGammaMeans(-1, 4); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := DiscreteGammaMeans(1, 0); err == nil {
		t.Error("zero categories accepted")
	}
	one, err := DiscreteGammaMeans(0.7, 1)
	if err != nil || len(one) != 1 || one[0] != 1 {
		t.Errorf("k=1 must give [1], got %v (%v)", one, err)
	}
}

func TestQuantizeSiteRates(t *testing.T) {
	rates := []float64{0.1, 0.11, 1.0, 1.02, 5.0, 5.1, 0.1}
	weights := []int{1, 2, 3, 1, 1, 1, 4}
	catRates, siteCats, err := QuantizeSiteRates(rates, weights, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(catRates) == 0 || len(catRates) > 25 {
		t.Fatalf("%d categories", len(catRates))
	}
	if len(siteCats) != len(rates) {
		t.Fatalf("%d site cats", len(siteCats))
	}
	// Nearby rates must collapse into the same category.
	if siteCats[0] != siteCats[1] || siteCats[0] != siteCats[6] {
		t.Errorf("0.1 and 0.11 in different categories: %v", siteCats)
	}
	// Distant rates must not collapse.
	if siteCats[0] == siteCats[4] {
		t.Errorf("0.1 and 5.0 merged: %v", siteCats)
	}
	// Category rate is the weighted mean of members.
	c := siteCats[0]
	want := (0.1*1 + 0.11*2 + 0.1*4) / 7
	if math.Abs(catRates[c]-want) > 1e-12 {
		t.Errorf("category rate %g, want %g", catRates[c], want)
	}
}

func TestQuantizeSiteRatesRespectsMaxCats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rates := make([]float64, 5000)
	weights := make([]int, 5000)
	for i := range rates {
		rates[i] = math.Exp(rng.NormFloat64() * 2)
		weights[i] = 1 + rng.Intn(3)
	}
	for _, maxCats := range []int{1, 5, 25} {
		catRates, siteCats, err := QuantizeSiteRates(rates, weights, maxCats)
		if err != nil {
			t.Fatal(err)
		}
		if len(catRates) > maxCats {
			t.Fatalf("maxCats=%d: %d categories", maxCats, len(catRates))
		}
		for i, c := range siteCats {
			if c < 0 || c >= len(catRates) {
				t.Fatalf("site %d: category %d out of range", i, c)
			}
		}
	}
}

func TestQuantizeDistributedEqualsLocal(t *testing.T) {
	// The three-step split must produce identical categories whether the
	// cell statistics are accumulated in one pass or summed from two
	// "rank" halves — the property the decentralized engine relies on.
	rng := rand.New(rand.NewSource(10))
	n := 1000
	rates := make([]float64, n)
	weights := make([]int, n)
	for i := range rates {
		rates[i] = math.Exp(rng.NormFloat64())
		weights[i] = 1 + rng.Intn(5)
	}
	catRates, siteCats, err := QuantizeSiteRates(rates, weights, MaxPSRCategories)
	if err != nil {
		t.Fatal(err)
	}

	h := n / 2
	r1, w1 := make([]float64, MaxPSRCategories), make([]float64, MaxPSRCategories)
	r2, w2 := make([]float64, MaxPSRCategories), make([]float64, MaxPSRCategories)
	AccumulateRateCells(rates[:h], weights[:h], r1, w1)
	AccumulateRateCells(rates[h:], weights[h:], r2, w2)
	for c := range r1 {
		r1[c] += r2[c]
		w1[c] += w2[c]
	}
	catRates2, cellToCat := FinalizeRateCategories(r1, w1)
	if len(catRates2) != len(catRates) {
		t.Fatalf("category counts differ: %d vs %d", len(catRates2), len(catRates))
	}
	for i := range catRates {
		if math.Abs(catRates[i]-catRates2[i]) > 1e-9 {
			t.Fatalf("category %d rate differs: %g vs %g", i, catRates[i], catRates2[i])
		}
	}
	sc1 := AssignRateCategories(rates[:h], cellToCat, MaxPSRCategories)
	sc2 := AssignRateCategories(rates[h:], cellToCat, MaxPSRCategories)
	for i := 0; i < h; i++ {
		if sc1[i] != siteCats[i] {
			t.Fatalf("site %d category differs", i)
		}
	}
	for i := h; i < n; i++ {
		if sc2[i-h] != siteCats[i] {
			t.Fatalf("site %d category differs", i)
		}
	}
}

func TestQuantizeErrors(t *testing.T) {
	if _, _, err := QuantizeSiteRates(nil, nil, 25); err == nil {
		t.Error("empty rates accepted")
	}
	if _, _, err := QuantizeSiteRates([]float64{1}, []int{1, 2}, 25); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := QuantizeSiteRates([]float64{1}, []int{1}, 0); err == nil {
		t.Error("zero maxCats accepted")
	}
}

func TestRateCellOfBounds(t *testing.T) {
	if RateCellOf(0, 25) != 0 || RateCellOf(MinSiteRate/2, 25) != 0 {
		t.Error("below-range rate not in cell 0")
	}
	if RateCellOf(MaxSiteRate*2, 25) != 24 {
		t.Error("above-range rate not in last cell")
	}
	prev := -1
	for r := MinSiteRate; r <= MaxSiteRate; r *= 1.3 {
		c := RateCellOf(r, 25)
		if c < prev {
			t.Fatalf("cell index not monotone at rate %g", r)
		}
		prev = c
	}
}

// TestSiteRateGridSubdividesTheCells: the scan grid is the quantization
// grid subdivided — the same span, strictly increasing, evenly spaced in
// log rate, and the same number of scan rates inside every cell.
func TestSiteRateGridSubdividesTheCells(t *testing.T) {
	g := SiteRateGrid[:]
	if g[0] != MinSiteRate || g[len(g)-1] != MaxSiteRate {
		t.Fatalf("grid spans [%g, %g], want [%g, %g]", g[0], g[len(g)-1], MinSiteRate, MaxSiteRate)
	}
	perCell := make([]int, MaxPSRCategories)
	for i := 1; i < len(g); i++ {
		if step := math.Log(g[i] / g[i-1]); math.Abs(step-SiteRateGridStep) > 1e-12 {
			t.Fatalf("grid step %d is %g in log rate, want %g", i, step, SiteRateGridStep)
		}
		// Mid-points avoid asking which side of a cell boundary a grid
		// rate rounds to.
		perCell[RateCellOf(math.Sqrt(g[i]*g[i-1]), MaxPSRCategories)]++
	}
	for c, n := range perCell {
		if n != (SiteRateGridSize-1)/MaxPSRCategories {
			t.Errorf("cell %d holds %d grid intervals, want %d", c, n, (SiteRateGridSize-1)/MaxPSRCategories)
		}
	}
}

// TestSiteRateGridWindow: the window holds exactly the grid rates inside
// the interval, ends included, and nothing for an interval of NaNs.
func TestSiteRateGridWindow(t *testing.T) {
	g := SiteRateGrid[:]
	for _, c := range []struct{ rLo, rHi float64 }{
		{MinSiteRate, MaxSiteRate}, {0.125, 8}, {g[10], g[20]}, {g[10] * 1.01, g[20] * 0.99}, {1e-9, 1e-6}, {0.0105, 0.0108},
	} {
		lo, hi := SiteRateGridWindow(c.rLo, c.rHi)
		for i, r := range g {
			if in := r >= c.rLo && r <= c.rHi; in != (i >= lo && i <= hi) {
				t.Errorf("[%g, %g]: window %d..%d, grid rate %d = %g inside: %v", c.rLo, c.rHi, lo, hi, i, r, in)
			}
		}
	}
	if lo, hi := SiteRateGridWindow(math.NaN(), math.NaN()); lo <= hi {
		t.Errorf("NaN interval: window %d..%d, want none", lo, hi)
	}
}
