package likelihood_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/msa"
	"repro/internal/traversal"
	"repro/internal/tree"
)

// The corners the product kernels are held to the brute-force reference
// at (ROADMAP 5a): lnL, and (d1, d2) of every edge against central
// differences of the reference's site likelihoods.

// cornerBound is how far the kernels may be from the reference:
//
//	lnL: |lnL − brute| / |brute|
//	d1:  |d1 − fd1| / (Σ w·|L′/L| + Σ w)
//	d2:  |d2 − fd2| / (Σ w·(|L″/L| + (L′/L)²) + Σ w)
//
// The derivative scales are the sums of magnitudes the derivative is a
// signed sum of, plus one per column for the noise floor of a difference
// quotient where L′ ≪ L. Every bound below is the worst case measured on
// its cases, times four. What sets them: the product's P(t) comes from
// the eigendecomposition, where an off-diagonal entry of order t·r is a
// difference of terms of order one, good to about ε/(t·r) relative. A
// column that needs a change across an edge of MinBranchLength carries
// that error into its likelihood — the caterpillar does on every edge,
// min-max-edges on a quarter of them — and a site rate of MinSiteRate
// makes it a thousand times larger. On ordinary lengths the kernels agree
// with the reference to a few ulps of lnL, and the d2 bound is the noise
// of the difference quotient.
type cornerBound struct{ lnL, d1, d2 float64 }

func cornerNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("t%02d", i)
	}
	return names
}

// cornerData draws concrete random states — on short branches nearly
// every column then needs a change on nearly every edge — with weights
// 1..3.
func cornerData(rng *rand.Rand, nTaxa, nSites int) *msa.PartitionData {
	pd := &msa.PartitionData{
		Name:    "corner",
		Tips:    make([][]msa.State, nTaxa),
		Weights: make([]int, nSites),
		Freqs:   [4]float64{0.31, 0.19, 0.22, 0.28},
	}
	for j := range pd.Weights {
		pd.Weights[j] = 1 + rng.Intn(3)
	}
	for i := range pd.Tips {
		pd.Tips[i] = make([]msa.State, nSites)
		for j := range pd.Tips[i] {
			pd.Tips[i][j] = msa.State(1) << rng.Intn(4)
		}
	}
	return pd
}

// cornerShape is a tree with two branch-length classes — class 0 stands
// for joint branch lengths, class 1 for a partition's own under -M — and
// the data on it.
type cornerShape struct {
	name string
	tree *tree.Tree
	pd   *msa.PartitionData
	// minScaleBits, when > 0, is how far below 1 (in bits) the smallest
	// site likelihood must lie: the case exists to make the kernel rescale.
	minScaleBits int
	// bound holds for the models with rates of order one, boundTinyRates
	// for PSR categories down to MinSiteRate.
	bound, boundTinyRates cornerBound
}

func cornerShapes() []cornerShape {
	rng := rand.New(rand.NewSource(20240))

	// Edges at both ends of the admissible range, next to ordinary ones.
	extremes := cornerShape{name: "min-max-edges", tree: tree.NewRandom(cornerNames(8), 2, rng), pd: cornerData(rng, 8, 26),
		bound:          cornerBound{4 * 4.1e-15, 4 * 5.5e-13, 4 * 3.3e-9},
		boundTinyRates: cornerBound{4 * 5.6e-10, 4 * 3.8e-7, 4 * 9.2e-7}}
	pick := []float64{tree.MinBranchLength, tree.MaxBranchLength, 0.05, 0.7}
	for i, e := range extremes.tree.Edges() {
		e.SetLength(0, pick[i%4])
		e.SetLength(1, pick[(i+1)%4])
	}

	// A column that says nothing and a taxon that says nothing.
	gaps := cornerShape{name: "all-gap-column+all-N-taxon", tree: tree.NewRandom(cornerNames(8), 2, rng), pd: cornerData(rng, 8, 26),
		bound:          cornerBound{4 * 8.2e-16, 4 * 3.5e-13, 4 * 3.1e-9},
		boundTinyRates: cornerBound{4 * 3.1e-14, 4 * 7.0e-13, 4 * 9.9e-9}}
	for _, e := range gaps.tree.Edges() {
		e.SetLength(0, 0.02+0.4*rng.Float64())
		e.SetLength(1, 0.02+0.4*rng.Float64())
	}
	for i := range gaps.pd.Tips {
		gaps.pd.Tips[i][3] = msa.StateGap
	}
	for j := range gaps.pd.Tips[5] {
		gaps.pd.Tips[5][j] = msa.StateGap
	}

	// Forty taxa on a caterpillar of near-zero branches under random
	// columns: some thirty changes a column at about 2^-28 each, several
	// rescalings deep.
	deep := cornerShape{name: "caterpillar-40", tree: tree.NewComb(cornerNames(40), 2), pd: cornerData(rng, 40, 8), minScaleBits: 2 * 256,
		bound:          cornerBound{4 * 1.4e-9, 4 * 2.0e-7, 4 * 4.7e-7},
		boundTinyRates: cornerBound{4 * 4.9e-7, 4 * 1.5e-4, 4 * 3.4e-4}}
	for _, e := range deep.tree.Edges() {
		e.SetLength(0, tree.MinBranchLength)
		e.SetLength(1, 3*tree.MinBranchLength)
	}
	return []cornerShape{extremes, gaps, deep}
}

// cornerModel is a rate-heterogeneity corner.
type cornerModel struct {
	name  string
	het   model.Heterogeneity
	alpha float64
	// psrCats is the number of PSR rate categories, spread over the whole
	// admissible rate range.
	psrCats int
}

func (m cornerModel) tinyRates() bool { return m.psrCats > 1 }

var cornerModels = []cornerModel{
	{name: "gamma", het: model.Gamma, alpha: 0.7},
	{name: "gamma-min-alpha", het: model.Gamma, alpha: model.MinAlpha},
	{name: "gamma-max-alpha", het: model.Gamma, alpha: model.MaxAlpha},
	{name: "psr-1-category", het: model.PSR, psrCats: 1},
	{name: "psr-max-categories", het: model.PSR, psrCats: model.MaxPSRCategories},
}

func (m cornerModel) params(t *testing.T, pd *msa.PartitionData) *model.Params {
	t.Helper()
	par, err := model.NewParams(m.het, pd.Freqs, pd.NPatterns())
	if err != nil {
		t.Fatal(err)
	}
	par.Rates = [model.NumRates]float64{1.3, 2.9, 0.6, 0.9, 3.4, 1}
	if m.het == model.Gamma {
		par.Alpha = m.alpha
	}
	if err := par.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if m.het == model.PSR {
		par.CatRates = make([]float64, m.psrCats)
		for k := range par.CatRates {
			par.CatRates[k] = 1
			if m.psrCats > 1 {
				f := float64(k) / float64(m.psrCats-1)
				par.CatRates[k] = model.MinSiteRate * math.Pow(model.MaxSiteRate/model.MinSiteRate, f)
			}
		}
		for i := range par.SiteCats {
			par.SiteCats[i] = (7 * i) % m.psrCats
			par.SiteRates[i] = par.CatRates[par.SiteCats[i]]
		}
	}
	return par
}

// TestKernelsMatchBruteForceAtTheCorners holds the product kernels, in
// their default configuration, to the brute-force reference where they
// are most likely to part from it: branch lengths at both bounds, data
// that carries no information, α at both bounds, a tree deep enough to
// rescale more than once, PSR with one and with every category, under
// joint and per-partition branch lengths.
func TestKernelsMatchBruteForceAtTheCorners(t *testing.T) {
	for _, shape := range cornerShapes() {
		var worst, worstTiny cornerBound
		for _, m := range cornerModels {
			bound, seen := shape.bound, &worst
			if m.tinyRates() {
				bound, seen = shape.boundTinyRates, &worstTiny
			}
			for class := 0; class < 2; class++ {
				label := fmt.Sprintf("%s/%s/class%d", shape.name, m.name, class)
				tr, pd := shape.tree, shape.pd
				par := m.params(t, pd)
				kern, err := likelihood.NewNow(pd, par, tr.NInner())
				if err != nil {
					t.Fatal(err)
				}
				tip0 := tr.Tip(0)
				kern.Traverse(traversal.ForEdge(tr, tip0, class, true))
				got := kern.Evaluate(traversal.Ref(tr, tip0), traversal.Ref(tr, tip0.Back), tip0.Length(class))

				br := newBrute(par)
				want := 0.0
				base := make([]scaled, pd.NPatterns())
				lowest := 0
				for i, w := range pd.Weights {
					base[i] = br.site(tip0, i, pd, par, class)
					want += float64(w) * (math.Log(base[i].v) + float64(base[i].e)*math.Ln2)
					_, k := math.Frexp(base[i].v)
					lowest = min(lowest, base[i].e+k)
				}
				if -lowest < shape.minScaleBits {
					t.Errorf("%s: smallest site likelihood is 2^%d, the case wants below 2^-%d", label, lowest, shape.minScaleBits)
				}
				errLnL := math.Abs(got-want) / math.Abs(want)
				seen.lnL = math.Max(seen.lnL, errLnL)
				if !(errLnL <= bound.lnL) {
					t.Errorf("%s: lnL %.17g, brute force %.17g (relative %.3g, bound %.3g)", label, got, want, errLnL, bound.lnL)
				}

				// (d1, d2) of every edge, the way the smoother gets them.
				plan, nodes := traversal.BuildGradient(tr, nil)
				kern.Traverse(plan.Pre[class])
				for b, nd := range nodes {
					t0 := plan.T[class][b]
					kern.Contract(b, plan.Edges[b].P, plan.Edges[b].Q)
					d1, d2 := kern.Derivatives(b, t0)
					var fd1, fd2, s1, s2, wsum float64
					for i, w := range pd.Weights {
						// A site likelihood is an entire function of the
						// branch length, of scale 1/rate wherever the branch
						// sits — differences across t = 0 are as good as any.
						rate := par.CatRates[len(par.CatRates)-1]
						if par.Het != model.Gamma {
							rate = par.CatRates[par.SiteCats[i]]
						}
						h := 1e-3 / rate
						// f[k] is L(t0 + (k−2)·h) / L(t0): the five-point stencils.
						f := [5]float64{2: 1}
						for _, k := range []int{0, 1, 3, 4} {
							br.at, br.shift = nd, float64(k-2)*h
							f[k] = br.site(tip0, i, pd, par, class).over(base[i])
						}
						br.at = nil
						l1 := (f[0] - 8*f[1] + 8*f[3] - f[4]) / (12 * h)
						l2 := (-f[0] + 16*f[1] - 30*f[2] + 16*f[3] - f[4]) / (12 * h * h)
						fd1 += float64(w) * l1
						fd2 += float64(w) * (l2 - l1*l1)
						s1 += float64(w) * math.Abs(l1)
						s2 += float64(w) * (math.Abs(l2) + l1*l1)
						wsum += float64(w)
					}
					e1 := math.Abs(d1-fd1) / (s1 + wsum)
					e2 := math.Abs(d2-fd2) / (s2 + wsum)
					seen.d1, seen.d2 = math.Max(seen.d1, e1), math.Max(seen.d2, e2)
					if !(e1 <= bound.d1) {
						t.Errorf("%s edge %d (t=%g): d1 %.17g, central difference of the brute-force site likelihoods %.17g (%.3g of scale, bound %.3g)", label, b, t0, d1, fd1, e1, bound.d1)
					}
					if !(e2 <= bound.d2) {
						t.Errorf("%s edge %d (t=%g): d2 %.17g, central difference of the brute-force site likelihoods %.17g (%.3g of scale, bound %.3g)", label, b, t0, d2, fd2, e2, bound.d2)
					}
				}
			}
		}
		t.Logf("%s: worst seen %.2g (rates of order one), %.2g (rates down to MinSiteRate)", shape.name, worst, worstTiny)
	}
}
