package model

import (
	"math"
	"testing"
)

func TestNewParamsGamma(t *testing.T) {
	p, err := NewParams(Gamma, UniformFreqs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	if len(p.CatRates) != GammaCategories {
		t.Fatalf("cats = %d", len(p.CatRates))
	}
	if p.CatWeight() != 0.25 {
		t.Fatalf("weight = %g", p.CatWeight())
	}
}

func TestNewParamsPSR(t *testing.T) {
	p, err := NewParams(PSR, UniformFreqs(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	if len(p.CatRates) != 1 || len(p.SiteRates) != 10 {
		t.Fatalf("cats=%d siteRates=%d", len(p.CatRates), len(p.SiteRates))
	}
	if p.CatWeight() != 1 {
		t.Fatalf("weight = %g", p.CatWeight())
	}
}

func TestParamsRebuildUpdatesGammaRates(t *testing.T) {
	p, err := NewParams(Gamma, UniformFreqs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), p.CatRates...)
	p.Alpha = 0.2
	if err := p.Rebuild(); err != nil {
		t.Fatal(err)
	}
	changed := false
	for i := range before {
		if math.Abs(before[i]-p.CatRates[i]) > 1e-12 {
			changed = true
		}
	}
	if !changed {
		t.Fatal("changing alpha did not change category rates")
	}
}

func TestParamsSharedRoundTrip(t *testing.T) {
	p, err := NewParams(Gamma, UniformFreqs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Alpha = 0.73
	p.Rates = [NumRates]float64{1.1, 2.2, 0.5, 0.9, 3.1, 1}
	if err := p.Rebuild(); err != nil {
		t.Fatal(err)
	}
	v := p.EncodeShared()
	if len(v) != SharedLen {
		t.Fatalf("encoded length %d, want %d", len(v), SharedLen)
	}
	q, err := NewParams(Gamma, UniformFreqs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.DecodeShared(v); err != nil {
		t.Fatal(err)
	}
	if q.Alpha != p.Alpha || q.Rates != p.Rates {
		t.Fatal("shared round trip lost parameters")
	}
	// Derived eigensystem must match too.
	for i := range p.Eigen.Vals {
		if math.Abs(p.Eigen.Vals[i]-q.Eigen.Vals[i]) > 1e-14 {
			t.Fatal("eigen differs after decode")
		}
	}
	if err := q.DecodeShared(v[:3]); err == nil {
		t.Error("short vector accepted")
	}
}

func TestParamsCloneIndependence(t *testing.T) {
	p, err := NewParams(PSR, UniformFreqs(), 5)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	c.SiteRates[0] = 9
	c.CatRates[0] = 9
	c.Alpha = 9
	if p.SiteRates[0] == 9 || p.CatRates[0] == 9 || p.Alpha == 9 {
		t.Fatal("clone shares storage")
	}
}

func TestParamsCheckCatchesCorruption(t *testing.T) {
	p, err := NewParams(PSR, UniformFreqs(), 3)
	if err != nil {
		t.Fatal(err)
	}
	p.SiteCats[1] = 7
	if p.Check() == nil {
		t.Error("out-of-range site category accepted")
	}
	q, _ := NewParams(Gamma, UniformFreqs(), 0)
	q.CatRates = q.CatRates[:2]
	if q.Check() == nil {
		t.Error("wrong gamma category count accepted")
	}
	q2, _ := NewParams(Gamma, UniformFreqs(), 0)
	q2.CatRates[0] = -1
	if q2.Check() == nil {
		t.Error("negative category rate accepted")
	}
}

// TestRebuildIsIncremental pins what Rebuild re-derives: the eigensystem
// only when Rates or Freqs changed, the Γ category means only when Alpha
// changed, the generation only when either did — and that whatever it
// keeps equals what a from-scratch derivation of the same values gives.
func TestRebuildIsIncremental(t *testing.T) {
	p, err := NewParams(Gamma, UniformFreqs(), 0)
	if err != nil {
		t.Fatal(err)
	}

	// The eigensystem is re-derived in place, into the Eigen the
	// parameters hold: each re-derivation moves the generation once, so a
	// step of one tells which derivations ran.
	// α only: same eigensystem, new category rates, one new generation.
	eig, cats, gen := *p.Eigen, p.CatRates, p.Generation()
	cats0 := cats[0]
	p.Alpha = 0.37
	if err := p.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if *p.Eigen != eig {
		t.Error("α-only change moved the eigensystem")
	}
	if p.CatRates[0] == cats0 {
		t.Error("α-only change kept the Γ category rates")
	}
	if p.Generation() != gen+1 {
		t.Errorf("α-only change moved the generation by %d, want 1 (category rates only)", p.Generation()-gen)
	}

	// Rate only: new eigensystem, same category-rate slice.
	eig, cats, gen = *p.Eigen, p.CatRates, p.Generation()
	p.Rates[2] = 2.5
	if err := p.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if p.Eigen.Vals == eig.Vals {
		t.Error("rate-only change kept the eigensystem")
	}
	if &p.CatRates[0] != &cats[0] {
		t.Error("rate-only change re-derived the Γ category rates")
	}
	if p.Generation() != gen+1 {
		t.Errorf("rate-only change moved the generation by %d, want 1 (eigensystem only)", p.Generation()-gen)
	}

	// No change: nothing moves, through Rebuild and through DecodeShared.
	eigp := p.Eigen
	eig, cats, gen = *p.Eigen, p.CatRates, p.Generation()
	if err := p.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := p.DecodeShared(p.EncodeShared()); err != nil {
		t.Fatal(err)
	}
	if p.Eigen != eigp || *p.Eigen != eig || &p.CatRates[0] != &cats[0] || p.Generation() != gen {
		t.Error("no-op Rebuild/DecodeShared touched derived state or the generation")
	}

	// Changed frequencies (what a bootstrap resample brings) re-derive
	// the eigensystem.
	p.Freqs = [4]float64{0.1, 0.2, 0.3, 0.4}
	if err := p.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if p.Eigen != eigp || *p.Eigen == eig || p.Generation() != gen+1 {
		t.Error("changed frequencies kept the eigensystem, or moved it out of its Eigen")
	}

	// The incrementally maintained state is what a fresh Params derives
	// from the same values, bit for bit.
	fresh, err := NewParams(Gamma, p.Freqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.DecodeShared(p.EncodeShared()); err != nil {
		t.Fatal(err)
	}
	if *fresh.Eigen != *p.Eigen {
		t.Error("incremental eigensystem differs from a fresh derivation")
	}
	for i := range p.CatRates {
		if math.Float64bits(fresh.CatRates[i]) != math.Float64bits(p.CatRates[i]) {
			t.Error("incremental Γ rates differ from a fresh derivation")
		}
	}

	// A clone owns its derived state: mutating and rebuilding it leaves
	// the original alone, and an unchanged clone has nothing to rebuild.
	c := p.Clone()
	if c.Eigen == p.Eigen {
		t.Fatal("clone shares the eigensystem")
	}
	ceig, cgen := *c.Eigen, c.Generation()
	if err := c.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if *c.Eigen != ceig || c.Generation() != cgen {
		t.Error("unchanged clone rebuilt")
	}
	c.Rates[0] = 3
	c.Alpha = 2
	if err := c.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if *c.Eigen == ceig || c.Generation() != cgen+2 {
		t.Error("mutated clone did not rebuild")
	}
	if p.Rates[0] == 3 || *p.Eigen == *c.Eigen || p.CatRates[0] == c.CatRates[0] {
		t.Error("rebuilding the clone changed the original")
	}

	// A rejected value reports an error and stays pending: the next
	// Rebuild sees it again instead of trusting stale derived state.
	p.Alpha = -1
	if p.Rebuild() == nil || p.Rebuild() == nil {
		t.Error("invalid α accepted")
	}
	p.Alpha = 0.5
	p.Rates[1] = math.NaN()
	if p.Rebuild() == nil || p.Rebuild() == nil {
		t.Error("NaN rate accepted")
	}
}
