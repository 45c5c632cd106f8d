package model

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/numutil"
)

// Heterogeneity selects the among-site rate heterogeneity model.
type Heterogeneity int

const (
	// Gamma is the standard discrete-Γ model (Yang 1994) with
	// GammaCategories categories of equal probability.
	Gamma Heterogeneity = iota
	// PSR is the per-site rate model (renamed from CAT by the paper to
	// avoid confusion with PhyloBayes-CAT): every site owns an individual
	// evolutionary rate, quantized into at most MaxPSRCategories distinct
	// values. Its memory footprint is 4× smaller than Γ's, which the
	// paper identifies as its main advantage.
	PSR
)

// String implements fmt.Stringer.
func (h Heterogeneity) String() string {
	switch h {
	case Gamma:
		return "GAMMA"
	case PSR:
		return "PSR"
	}
	return fmt.Sprintf("Heterogeneity(%d)", int(h))
}

// GammaCategories is the number of discrete Γ rate categories, fixed to 4
// as in essentially all likelihood-based phylogenetics software.
const GammaCategories = 4

// Bounds for the Γ shape parameter α during optimization (RAxML limits).
const (
	MinAlpha = 0.02
	MaxAlpha = 100.0
)

// MaxPSRCategories bounds the number of distinct per-site rate values
// after quantization, following RAxML's default of 25.
const MaxPSRCategories = 25

// Bounds for individual site rates under PSR.
const (
	MinSiteRate = 1e-3
	MaxSiteRate = 30.0
)

// DiscreteGammaMeans returns the k category rates of the discrete-Γ model
// with shape α: the means of Gamma(α, α) over its k equal-probability
// quantile slices, rescaled to average exactly 1. Category probabilities
// are uniform (1/k).
func DiscreteGammaMeans(alpha float64, k int) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("model: need at least 1 gamma category, got %d", k)
	}
	rates := make([]float64, k)
	if err := DiscreteGammaMeansInto(alpha, rates); err != nil {
		return nil, err
	}
	return rates, nil
}

// DiscreteGammaMeansInto is DiscreteGammaMeans for k = len(rates),
// written to rates; it allocates nothing.
func DiscreteGammaMeansInto(alpha float64, rates []float64) error {
	k := len(rates)
	if k < 1 {
		return fmt.Errorf("model: need at least 1 gamma category, got %d", k)
	}
	if !(alpha > 0) {
		return fmt.Errorf("model: alpha = %g must be positive", alpha)
	}
	if k == 1 {
		rates[0] = 1
		return nil
	}
	// Mean of slice [a,b) between the i/k quantiles of Gamma(α, α):
	// k·(P(α+1, αb) − P(α+1, αa)).
	prev := 0.0
	for i := 0; i < k; i++ {
		var next float64
		if i == k-1 {
			next = 1
		} else {
			bound := numutil.GammaQuantile(float64(i+1)/float64(k), alpha, alpha)
			next = numutil.GammaIncP(alpha+1, alpha*bound)
		}
		rates[i] = float64(k) * (next - prev)
		prev = next
	}
	// Renormalize the tiny numerical drift so the mean is exactly 1.
	mean := 0.0
	for _, r := range rates {
		mean += r
	}
	mean /= float64(k)
	for i := range rates {
		rates[i] /= mean
		if rates[i] < 1e-10 {
			rates[i] = 1e-10 // guard against α so extreme a category underflows
		}
	}
	return nil
}

// PSR rate quantization groups per-site rates onto a fixed geometric grid
// of maxCats cells spanning [MinSiteRate, MaxSiteRate]; every occupied
// cell becomes one category whose rate is the weight-averaged rate of its
// member sites. This is the PSR analogue of RAxML's rate-category
// compression: it bounds both CLV memory and the per-category P(t) work.
//
// The procedure is deliberately split into three steps so that the
// per-cell statistics can be summed across ranks with one small Allreduce
// (2·maxCats doubles) — the "additional MPI calls to handle the CAT model"
// the paper mentions for ExaML — giving every rank the identical global
// category rates:
//
//	AccumulateRateCells(localRates, localWeights, sumR, sumW) // zeroed, maxCats long
//	// engine: Allreduce(sumR), Allreduce(sumW)
//	catRates, cellToCat := FinalizeRateCategories(sumR, sumW)
//	siteCats := AssignRateCategories(localRates, cellToCat, maxCats)

// logMinSiteRate and logMaxSiteRate are the ends of the rate range in log
// rate: the axis both the quantization cells and the scan grid are laid
// out on.
var (
	logMinSiteRate = math.Log(MinSiteRate)
	logMaxSiteRate = math.Log(MaxSiteRate)
)

// RateCellOf maps a site rate to its cell on the fixed geometric grid.
func RateCellOf(r float64, maxCats int) int {
	if r <= MinSiteRate {
		return 0
	}
	if r >= MaxSiteRate {
		return maxCats - 1
	}
	c := int(float64(maxCats) * (math.Log(r) - logMinSiteRate) / (logMaxSiteRate - logMinSiteRate))
	if c >= maxCats {
		c = maxCats - 1
	}
	return c
}

// The site-rate scan grid is the quantization grid subdivided: the
// candidate rates the per-site rate search evaluates are the
// siteRateGridPerCell points per cell of RateCellOf's MaxPSRCategories
// cells, geometric over [MinSiteRate, MaxSiteRate]. It is derived, not
// configured — a rate search finer than the cells its result is bucketed
// into buys nothing, one much coarser loses likelihood — and it is one
// table for all sites of all partitions, which is what lets P(t·r) be
// built once per (edge, grid rate) instead of once per (site, step).
const (
	siteRateGridPerCell = 4
	// SiteRateGridSize is the number of scan-grid rates.
	SiteRateGridSize = siteRateGridPerCell*MaxPSRCategories + 1
)

// SiteRateGridStep is the scan grid's spacing in log rate (≈ 0.103, a
// factor of ≈ 1.11 between neighbours).
var SiteRateGridStep = (logMaxSiteRate - logMinSiteRate) / (SiteRateGridSize - 1)

// SiteRateGrid holds the scan-grid rates in increasing order, from
// MinSiteRate to MaxSiteRate exactly.
var SiteRateGrid = func() (g [SiteRateGridSize]float64) {
	for i := range g {
		g[i] = math.Exp(logMinSiteRate + float64(i)*SiteRateGridStep)
	}
	g[0], g[SiteRateGridSize-1] = MinSiteRate, MaxSiteRate
	return g
}()

// SiteRateGridWindow returns the index range [lo, hi] of the scan-grid
// rates inside [rLo, rHi]; lo > hi when there is none.
func SiteRateGridWindow(rLo, rHi float64) (lo, hi int) {
	lo = sort.SearchFloat64s(SiteRateGrid[:], rLo)
	hi = sort.Search(SiteRateGridSize, func(g int) bool { return SiteRateGrid[g] > rHi }) - 1
	return lo, hi
}

// AccumulateRateCells adds the local sites' per-cell weighted rate sums
// and weight totals to sumR and sumW, the caller's buffers of one entry
// per grid cell.
func AccumulateRateCells(rates []float64, weights []int, sumR, sumW []float64) {
	maxCats := len(sumR)
	sumW = sumW[:maxCats]
	for i, r := range rates {
		c := RateCellOf(r, maxCats)
		w := float64(weights[i])
		sumR[c] += r * w
		sumW[c] += w
	}
}

// FinalizeRateCategories turns (globally summed) cell statistics into the
// dense category rate list and a cell→category index map (-1 for empty
// cells).
func FinalizeRateCategories(sumR, sumW []float64) (catRates []float64, cellToCat []int) {
	return AppendRateCategories(nil, nil, sumR, sumW)
}

// AppendRateCategories is FinalizeRateCategories appending the category
// rates to catRates[:0] and writing the cell map to cellToCat's storage,
// grown to len(sumW) if it must be.
func AppendRateCategories(catRates []float64, cellToCat []int, sumR, sumW []float64) ([]float64, []int) {
	catRates = catRates[:0]
	if cap(cellToCat) < len(sumW) {
		cellToCat = make([]int, len(sumW))
	}
	cellToCat = cellToCat[:len(sumW)]
	for c := range sumW {
		if sumW[c] > 0 {
			cellToCat[c] = len(catRates)
			catRates = append(catRates, sumR[c]/sumW[c])
		} else {
			cellToCat[c] = -1
		}
	}
	return catRates, cellToCat
}

// AssignRateCategories maps each local site rate to its category index.
func AssignRateCategories(rates []float64, cellToCat []int, maxCats int) []int {
	return AssignRateCategoriesInto(make([]int, len(rates)), rates, cellToCat, maxCats)
}

// AssignRateCategoriesInto is AssignRateCategories writing to siteCats
// (len(rates) entries), which it returns.
func AssignRateCategoriesInto(siteCats []int, rates []float64, cellToCat []int, maxCats int) []int {
	siteCats = siteCats[:len(rates)]
	for i, r := range rates {
		siteCats[i] = cellToCat[RateCellOf(r, maxCats)]
	}
	return siteCats
}

// QuantizeSiteRates is the single-process composition of the three-step
// quantization. Only tests call it: the engines run the three steps
// across ranks.
func QuantizeSiteRates(rates []float64, weights []int, maxCats int) (catRates []float64, siteCats []int, err error) {
	if len(rates) == 0 {
		return nil, nil, fmt.Errorf("model: no site rates to quantize")
	}
	if len(weights) != len(rates) {
		return nil, nil, fmt.Errorf("model: %d weights for %d rates", len(weights), len(rates))
	}
	if maxCats < 1 {
		return nil, nil, fmt.Errorf("model: maxCats = %d", maxCats)
	}
	sumR, sumW := make([]float64, maxCats), make([]float64, maxCats)
	AccumulateRateCells(rates, weights, sumR, sumW)
	catRates, cellToCat := FinalizeRateCategories(sumR, sumW)
	return catRates, AssignRateCategories(rates, cellToCat, maxCats), nil
}
