package model

import (
	"fmt"
	"math"

	"repro/internal/msa"
)

// Params bundles the model parameters of one partition together with the
// derived quantities (eigensystem, category rates) the kernels consume.
//
// Frequencies are empirical (set once from the data); α, the GTR rates,
// and — under PSR — the per-site rates are optimized during the search.
// SiteRates and SiteCats are indexed by *local* pattern: after data
// distribution each rank holds entries only for the patterns it owns,
// which is exactly why the fork-join master must ship rate updates over
// the wire while the de-centralized scheme keeps them local.
type Params struct {
	// Het selects Γ or PSR rate heterogeneity.
	Het Heterogeneity
	// Freqs is the stationary distribution (empirical base frequencies).
	Freqs [msa.NumStates]float64
	// Rates are the GTR exchangeabilities (GT fixed to 1).
	Rates [NumRates]float64
	// Alpha is the Γ shape parameter (unused under PSR).
	Alpha float64
	// CatRates are the active rate categories: the 4 discrete-Γ means, or
	// the quantized PSR category rates (≥1 entries).
	CatRates []float64
	// SiteRates are the per-local-pattern rates (PSR only).
	SiteRates []float64
	// SiteCats are the per-local-pattern category indices (PSR only).
	SiteCats []int
	// Eigen is the spectral decomposition of the current GTR matrix.
	Eigen *Eigen

	// gen counts parameter revisions: every change to a quantity a P(t)
	// matrix depends on (eigensystem, category rates) bumps it. Caches
	// keyed on (branch length, generation) — the kernel's P-matrix cache —
	// invalidate themselves by comparing generations, which is cheaper and
	// safer than threading explicit invalidation calls through every
	// parameter-mutation site.
	gen uint64

	// eigenRates/eigenFreqs are the inputs Eigen was last derived from and
	// gammaAlpha the α the Γ CatRates were derived from; Rebuild compares
	// against them to re-derive only what a change actually touched.
	eigenRates [NumRates]float64
	eigenFreqs [msa.NumStates]float64
	gammaAlpha float64
}

// Generation returns the parameter revision counter. Two calls returning
// the same value guarantee every quantity a probability matrix depends on
// is unchanged in between.
func (p *Params) Generation() uint64 { return p.gen }

// BumpGeneration marks the parameters revised without a full Rebuild —
// used by the PSR pipeline, which replaces CatRates/SiteCats directly.
func (p *Params) BumpGeneration() { p.gen++ }

// NewParams constructs default parameters: JC-equal exchangeabilities,
// α = 1, and — for PSR over nLocalPatterns patterns — unit site rates in a
// single category.
func NewParams(het Heterogeneity, freqs [msa.NumStates]float64, nLocalPatterns int) (*Params, error) {
	p := &Params{
		Het:   het,
		Freqs: freqs,
		Rates: DefaultRates(),
		Alpha: 1.0,
	}
	if het == PSR {
		p.SiteRates = make([]float64, nLocalPatterns)
		p.SiteCats = make([]int, nLocalPatterns)
		for i := range p.SiteRates {
			p.SiteRates[i] = 1
		}
		p.CatRates = []float64{1}
	}
	if err := p.Rebuild(); err != nil {
		return nil, err
	}
	return p, nil
}

// Rebuild brings the derived quantities up to date after a parameter
// change, re-deriving only what the change touched: the eigensystem when
// Rates or Freqs differ from the values it was decomposed from, the Γ
// category means when Alpha differs from the shape they were computed
// for. Both derivations are pure functions of those inputs, so skipping
// one whose inputs are unchanged leaves exactly the doubles a full
// recomputation would produce. The generation advances (and the kernels'
// P-matrix caches reset) only when something was re-derived. The
// eigensystem and the Γ category rates are re-derived into the Eigen and
// the slice the parameters already hold, so a probe allocates nothing. PSR category
// rates are maintained by the quantization pipeline, not here.
func (p *Params) Rebuild() error {
	if p.Eigen == nil || p.Rates != p.eigenRates || p.Freqs != p.eigenFreqs {
		var e Eigen
		if err := e.Decompose(p.Rates, p.Freqs); err != nil {
			return err
		}
		if p.Eigen == nil {
			p.Eigen = new(Eigen)
		}
		*p.Eigen = e
		p.eigenRates, p.eigenFreqs = p.Rates, p.Freqs
		p.gen++
	}
	if p.Het == Gamma && (p.CatRates == nil || p.Alpha != p.gammaAlpha) {
		var means [GammaCategories]float64
		if err := DiscreteGammaMeansInto(p.Alpha, means[:]); err != nil {
			return err
		}
		if len(p.CatRates) != GammaCategories {
			p.CatRates = make([]float64, GammaCategories)
		}
		copy(p.CatRates, means[:])
		p.gammaAlpha = p.Alpha
		p.gen++
	}
	return nil
}

// CatWeight returns the probability mass of category c: 1/4 under Γ; under
// PSR the categories partition the sites, so each site uses exactly one
// category with weight 1 (the weighting happens through site membership).
func (p *Params) CatWeight() float64 {
	if p.Het == Gamma {
		return 1.0 / GammaCategories
	}
	return 1.0
}

// Clone deep-copies the parameters.
func (p *Params) Clone() *Params {
	c := *p
	c.CatRates = append([]float64(nil), p.CatRates...)
	c.SiteRates = append([]float64(nil), p.SiteRates...)
	c.SiteCats = append([]int(nil), p.SiteCats...)
	if p.Eigen != nil {
		e := *p.Eigen
		c.Eigen = &e
	}
	return &c
}

// Check validates internal consistency.
func (p *Params) Check() error {
	if p.Eigen == nil {
		return fmt.Errorf("model: params not rebuilt")
	}
	if len(p.CatRates) == 0 {
		return fmt.Errorf("model: no rate categories")
	}
	for i, r := range p.CatRates {
		if !(r > 0) || math.IsInf(r, 0) {
			return fmt.Errorf("model: category rate %d = %g", i, r)
		}
	}
	if p.Het == PSR {
		if len(p.SiteRates) != len(p.SiteCats) {
			return fmt.Errorf("model: %d site rates, %d site cats", len(p.SiteRates), len(p.SiteCats))
		}
		for i, c := range p.SiteCats {
			if c < 0 || c >= len(p.CatRates) {
				return fmt.Errorf("model: site %d category %d out of range", i, c)
			}
		}
	}
	if p.Het == Gamma && len(p.CatRates) != GammaCategories {
		return fmt.Errorf("model: gamma with %d categories", len(p.CatRates))
	}
	return nil
}

// EncodeShared flattens the parameters every rank must agree on
// (α + the 6 GTR rates) into 7 doubles — the per-partition payload the
// fork-join master broadcasts whenever a proposal changes them, and the
// quantity Table I meters as "model parameters" traffic.
func (p *Params) EncodeShared() []float64 {
	return p.AppendShared(make([]float64, 0, 1+NumRates))
}

// AppendShared appends the EncodeShared vector to out, allocation-free
// when out has capacity.
func (p *Params) AppendShared(out []float64) []float64 {
	out = append(out, p.Alpha)
	return append(out, p.Rates[:]...)
}

// Layout of the EncodeShared vector: α at SharedAlpha, exchangeability r
// at SharedRates+r, SharedLen doubles in all.
const (
	SharedAlpha = 0
	SharedRates = 1
	SharedLen   = 1 + NumRates
)

// DecodeShared applies a flattened parameter vector and brings the
// derived state up to date (Rebuild); applying the values already held is
// a no-op that leaves the generation untouched.
func (p *Params) DecodeShared(v []float64) error {
	if len(v) != SharedLen {
		return fmt.Errorf("model: shared vector has %d entries, want %d", len(v), SharedLen)
	}
	p.Alpha = v[0]
	copy(p.Rates[:], v[1:])
	return p.Rebuild()
}
