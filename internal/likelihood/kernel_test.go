package likelihood_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/msa"
	"repro/internal/seqgen"
	"repro/internal/telemetry"
	"repro/internal/traversal"
	"repro/internal/tree"
)

// ---------- brute-force reference implementation ----------
// Independent of the eigen-decomposition path: Q assembled directly,
// P(t) = expm(Qt) via scaling-and-squaring Taylor series, likelihood via
// naive per-site pruning over the tree.

func buildQ(rates [model.NumRates]float64, freqs [4]float64) [16]float64 {
	var q [16]float64
	ri := 0
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			q[i*4+j] = rates[ri] * freqs[j]
			q[j*4+i] = rates[ri] * freqs[i]
			ri++
		}
	}
	mean := 0.0
	for i := 0; i < 4; i++ {
		row := 0.0
		for j := 0; j < 4; j++ {
			if j != i {
				row += q[i*4+j]
			}
		}
		q[i*4+i] = -row
		mean += freqs[i] * row
	}
	for i := range q {
		q[i] /= mean
	}
	return q
}

func matMul4(a, b [16]float64) [16]float64 {
	var c [16]float64
	for i := 0; i < 4; i++ {
		for k := 0; k < 4; k++ {
			for j := 0; j < 4; j++ {
				c[i*4+j] += a[i*4+k] * b[k*4+j]
			}
		}
	}
	return c
}

// expm computes e^{Q·t} by scaling and squaring with a 16-term Taylor
// series.
func expm(q [16]float64, t float64) [16]float64 {
	norm := 0.0
	for _, v := range q {
		if math.Abs(v*t) > norm {
			norm = math.Abs(v * t)
		}
	}
	squarings := 0
	for norm > 0.5 {
		norm /= 2
		squarings++
	}
	scale := t / math.Exp2(float64(squarings))
	var res, term [16]float64
	for i := 0; i < 4; i++ {
		res[i*4+i] = 1
		term[i*4+i] = 1
	}
	for k := 1; k <= 16; k++ {
		var scaled [16]float64
		for i := range q {
			scaled[i] = q[i] * scale / float64(k)
		}
		term = matMul4(term, scaled)
		for i := range res {
			res[i] += term[i]
		}
	}
	for s := 0; s < squarings; s++ {
		res = matMul4(res, res)
	}
	return res
}

// scaled is v·2^e: a likelihood with its own binary exponent. A deep
// tree with short branches and discordant columns underflows a float64
// long before its last vertex.
type scaled struct {
	v float64
	e int
}

// over returns a/b as a plain float64.
func (a scaled) over(b scaled) float64 { return math.Ldexp(a.v/b.v, a.e-b.e) }

// brute is the reference for one model: Q and π, plus the P matrices it
// has already exponentiated (a finite-difference sweep asks for the same
// few thousand again and again).
type brute struct {
	q     [16]float64
	freqs [4]float64
	pm    map[uint64][16]float64
	// at and shift lengthen the edge at one half-node by shift, as
	// P(t)·P(shift): the three points of a central difference then share
	// P(t) and its rounding, and differ by a P(±shift) that needs no
	// squaring.
	at    *tree.Node
	shift float64
}

func newBrute(par *model.Params) *brute {
	return &brute{q: buildQ(par.Rates, par.Freqs), freqs: par.Freqs, pm: map[uint64][16]float64{}}
}

func (br *brute) p(t float64) [16]float64 {
	key := math.Float64bits(t)
	m, ok := br.pm[key]
	if !ok {
		m = expm(br.q, t)
		br.pm[key] = m
	}
	return m
}

// edge returns the P matrix of the edge at n for one rate.
func (br *brute) edge(n *tree.Node, rate float64, blClass int) [16]float64 {
	m := br.p(n.Length(blClass) * rate)
	if br.at != nil && (n == br.at || n.Back == br.at) {
		m = matMul4(m, br.p(br.shift*rate))
	}
	return m
}

// vector computes the conditional likelihood 4-vector of the subtree
// hanging at n (seen from its edge), for one site at one rate, and the
// binary exponent it is to be read with: every vertex renormalizes to its
// largest entry.
func (br *brute) vector(n *tree.Node, site int, rate float64, tips [][]msa.State, blClass int) ([4]float64, int) {
	if n.IsTip() {
		return tips[n.TaxonID][site].TipVector(), 0
	}
	out := [4]float64{1, 1, 1, 1}
	e := 0
	for _, child := range []*tree.Node{n.Next, n.Next.Next} {
		cv, ce := br.vector(child.Back, site, rate, tips, blClass)
		p := br.edge(child, rate, blClass)
		for x := 0; x < 4; x++ {
			s := 0.0
			for y := 0; y < 4; y++ {
				s += p[x*4+y] * cv[y]
			}
			out[x] *= s
		}
		e += ce
	}
	big := 0.0
	for _, v := range out {
		big = math.Max(big, math.Abs(v))
	}
	if big > 0 {
		_, k := math.Frexp(big)
		for x := range out {
			out[x] = math.Ldexp(out[x], -k)
		}
		e += k
	}
	return out, e
}

// siteAtRate evaluates one site's likelihood at one rate with a virtual
// root on the edge at p.
func (br *brute) siteAtRate(p *tree.Node, site int, rate float64, tips [][]msa.State, blClass int) scaled {
	vp, ep := br.vector(p, site, rate, tips, blClass)
	vq, eq := br.vector(p.Back, site, rate, tips, blClass)
	pm := br.edge(p, rate, blClass)
	l := 0.0
	for x := 0; x < 4; x++ {
		right := 0.0
		for y := 0; y < 4; y++ {
			right += pm[x*4+y] * vq[y]
		}
		l += br.freqs[x] * vp[x] * right
	}
	return scaled{l, ep + eq}
}

// site evaluates one site's likelihood under the model's rate
// heterogeneity: the mean over the Γ categories, or the site's own PSR
// category.
func (br *brute) site(p *tree.Node, site int, pd *msa.PartitionData, par *model.Params, blClass int) scaled {
	if par.Het != model.Gamma {
		return br.siteAtRate(p, site, par.CatRates[par.SiteCats[site]], pd.Tips, blClass)
	}
	var cats [model.GammaCategories]scaled
	top := math.MinInt
	for k, r := range par.CatRates {
		cats[k] = br.siteAtRate(p, site, r, pd.Tips, blClass)
		if cats[k].v != 0 && cats[k].e > top {
			top = cats[k].e
		}
	}
	sum := scaled{0, top}
	for _, c := range cats {
		if c.v != 0 {
			sum.v += math.Ldexp(c.v, c.e-top) / model.GammaCategories
		}
	}
	return sum
}

// bruteLnL computes the total weighted log likelihood for a partition.
func bruteLnL(t *tree.Tree, p *tree.Node, pd *msa.PartitionData, par *model.Params, blClass int) float64 {
	br := newBrute(par)
	total := 0.0
	for i := range pd.Weights {
		l := br.site(p, i, pd, par, blClass)
		total += float64(pd.Weights[i]) * (math.Log(l.v) + float64(l.e)*math.Ln2)
	}
	return total
}

// ---------- fixtures ----------

type fixture struct {
	tree *tree.Tree
	pd   *msa.PartitionData
	par  *model.Params
	kern likelihood.Now
}

func makeFixture(t *testing.T, nTaxa, nSites int, het model.Heterogeneity, seed int64) *fixture {
	t.Helper()
	res, err := seqgen.Generate(seqgen.Config{
		NTaxa: nTaxa,
		Specs: []seqgen.Spec{{Name: "g", NSites: nSites, Alpha: 0.7, GapProb: 0.03}},
		Seed:  seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	pd := d.Parts[0]

	rng := rand.New(rand.NewSource(seed * 31))
	par, err := model.NewParams(het, pd.Freqs, pd.NPatterns())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < model.NumRates-1; i++ {
		par.Rates[i] = 0.4 + 2*rng.Float64()
	}
	par.Alpha = 0.5 + rng.Float64()
	if err := par.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if het == model.PSR {
		for i := range par.SiteRates {
			par.SiteRates[i] = math.Exp(rng.NormFloat64() * 0.5)
		}
		cr, sc, err := model.QuantizeSiteRates(par.SiteRates, pd.Weights, model.MaxPSRCategories)
		if err != nil {
			t.Fatal(err)
		}
		par.CatRates, par.SiteCats = cr, sc
	}

	// Random-ish tree over the same taxa, varied branch lengths.
	tr := tree.NewRandom(d.Names, 1, rng)
	for _, e := range tr.Edges() {
		e.SetLength(0, 0.02+0.3*rng.Float64())
	}

	kern, err := likelihood.NewNow(pd, par, tr.NInner())
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{tree: tr, pd: pd, par: par, kern: kern}
}

// evalAt runs a forced full traversal for the edge at p and evaluates.
func (f *fixture) evalAt(p *tree.Node) float64 {
	steps := traversal.ForEdge(f.tree, p, 0, true)
	f.kern.Traverse(steps)
	return f.kern.Evaluate(traversal.Ref(f.tree, p), traversal.Ref(f.tree, p.Back), p.Length(0))
}

// ---------- tests ----------

func TestEvaluateMatchesBruteForceGamma(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		f := makeFixture(t, 6, 40, model.Gamma, seed)
		p := f.tree.Tip(0)
		got := f.evalAt(p)
		want := bruteLnL(f.tree, p, f.pd, f.par, 0)
		if math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Errorf("seed %d: kernel %f vs brute force %f", seed, got, want)
		}
	}
}

func TestEvaluateMatchesBruteForcePSR(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		f := makeFixture(t, 6, 40, model.PSR, seed)
		p := f.tree.Tip(0)
		got := f.evalAt(p)
		want := bruteLnL(f.tree, p, f.pd, f.par, 0)
		if math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Errorf("seed %d: kernel %f vs brute force %f", seed, got, want)
		}
	}
}

func TestRootPlacementInvariance(t *testing.T) {
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		f := makeFixture(t, 10, 60, het, 9)
		ref := f.evalAt(f.tree.Tip(0))
		for _, e := range f.tree.Edges() {
			got := f.evalAt(e)
			if math.Abs(got-ref) > 1e-7*math.Abs(ref) {
				t.Fatalf("%v: lnL at edge %d–%d = %.10f, want %.10f", het, e.ID, e.Back.ID, got, ref)
			}
		}
	}
}

func TestPartialTraversalMatchesFull(t *testing.T) {
	f := makeFixture(t, 12, 50, model.Gamma, 21)
	// Establish CLVs with a full traversal at one edge.
	ref := f.evalAt(f.tree.Tip(3))
	_ = ref
	// Now move the virtual root around using *partial* traversals only.
	for _, e := range f.tree.Edges() {
		steps := traversal.ForEdge(f.tree, e, 0, false)
		f.kern.Traverse(steps)
		got := f.kern.Evaluate(traversal.Ref(f.tree, e), traversal.Ref(f.tree, e.Back), e.Length(0))
		// Compare against an independent forced evaluation on a clone
		// kernel — must agree because nothing in the tree changed.
		f2 := &fixture{tree: f.tree, pd: f.pd, par: f.par}
		kern2, err := likelihood.NewNow(f.pd, f.par, f.tree.NInner())
		if err != nil {
			t.Fatal(err)
		}
		f2.kern = kern2
		want := f2.evalAt(e)
		if math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Fatalf("partial traversal diverged at edge %d: %.12f vs %.12f", e.ID, got, want)
		}
	}
}

func TestPartialTraversalIsShorter(t *testing.T) {
	f := makeFixture(t, 20, 30, model.Gamma, 23)
	full := traversal.ForEdge(f.tree, f.tree.Tip(0), 0, true)
	f.kern.Traverse(full)
	if len(full) != f.tree.NInner() {
		t.Fatalf("full traversal has %d steps, want %d", len(full), f.tree.NInner())
	}
	// Re-orienting to an adjacent edge must touch only a few vertices —
	// the paper's "4-5 nodes on average" observation.
	adj := f.tree.Tip(0).Back.Next
	partial := traversal.ForEdge(f.tree, adj, 0, false)
	if len(partial) >= len(full)/2 {
		t.Fatalf("partial traversal has %d steps vs %d full; expected far fewer", len(partial), len(full))
	}
}

func TestDerivativesMatchFiniteDifferences(t *testing.T) {
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		f := makeFixture(t, 8, 60, het, 33)
		p := f.tree.Tip(2)
		f.evalAt(p)
		pRef := traversal.Ref(f.tree, p)
		qRef := traversal.Ref(f.tree, p.Back)
		f.kern.Contract(0, pRef, qRef)
		for _, t0 := range []float64{0.05, 0.15, 0.6} {
			d1, d2 := f.kern.Derivatives(0, t0)
			const h = 1e-6
			// d1 against the finite difference of the evaluate kernel
			// (an independent code path).
			lp := f.kern.Evaluate(pRef, qRef, t0+h)
			lm := f.kern.Evaluate(pRef, qRef, t0-h)
			fd1 := (lp - lm) / (2 * h)
			if math.Abs(d1-fd1) > 1e-3*(1+math.Abs(fd1)) {
				t.Errorf("%v t=%g: d1 = %g, finite diff %g", het, t0, d1, fd1)
			}
			// d2 against the central difference of the *analytic* d1 —
			// the second finite difference of lnL itself is dominated by
			// rounding noise at usable step sizes.
			d1p, _ := f.kern.Derivatives(0, t0+h)
			d1m, _ := f.kern.Derivatives(0, t0-h)
			fd2 := (d1p - d1m) / (2 * h)
			if math.Abs(d2-fd2) > 1e-4*(1+math.Abs(fd2)) {
				t.Errorf("%v t=%g: d2 = %g, d1 finite diff %g", het, t0, d2, fd2)
			}
		}
	}
}

func TestDerivativeZeroAtOptimum(t *testing.T) {
	// After Newton-optimizing the root branch, d1 must be ~0 and d2 < 0.
	f := makeFixture(t, 8, 80, model.Gamma, 41)
	p := f.tree.Tip(1)
	f.evalAt(p)
	pRef := traversal.Ref(f.tree, p)
	qRef := traversal.Ref(f.tree, p.Back)
	f.kern.Contract(0, pRef, qRef)
	best := p.Length(0)
	for iter := 0; iter < 60; iter++ {
		d1, d2 := f.kern.Derivatives(0, best)
		if d2 >= 0 {
			break
		}
		step := d1 / d2
		next := best - step
		if next < tree.MinBranchLength {
			next = tree.MinBranchLength
		}
		if next > tree.MaxBranchLength {
			next = tree.MaxBranchLength
		}
		if math.Abs(next-best) < 1e-12 {
			best = next
			break
		}
		best = next
	}
	d1, d2 := f.kern.Derivatives(0, best)
	if math.Abs(d1) > 1e-4 {
		t.Errorf("d1 at optimum = %g", d1)
	}
	if d2 >= 0 {
		t.Errorf("d2 at optimum = %g, want negative", d2)
	}
	// The optimized length must beat the starting length.
	before := f.kern.Evaluate(pRef, qRef, p.Length(0))
	after := f.kern.Evaluate(pRef, qRef, best)
	if after < before-1e-9 {
		t.Errorf("optimization worsened lnL: %f → %f", before, after)
	}
}

func TestScalingDeepTree(t *testing.T) {
	// A 120-taxon comb with short branches forces CLV underflow without
	// scaling; the lnL must stay finite and root-invariant.
	res, err := seqgen.Generate(seqgen.Config{
		NTaxa:            120,
		Specs:            []seqgen.Spec{{Name: "g", NSites: 30, Alpha: 1}},
		Seed:             55,
		MeanBranchLength: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	pd := d.Parts[0]
	par, err := model.NewParams(model.Gamma, pd.Freqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.NewComb(d.Names, 1)
	tr.SetAllLengths(0.03)
	kern, err := likelihood.NewNow(pd, par, tr.NInner())
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{tree: tr, pd: pd, par: par, kern: kern}
	ref := f.evalAt(tr.Tip(0))
	if math.IsInf(ref, 0) || math.IsNaN(ref) {
		t.Fatalf("lnL = %g", ref)
	}
	// Deep edge (middle of the comb).
	mid := tr.InnerRing(tr.NInner() / 2)
	got := f.evalAt(mid)
	if math.Abs(got-ref) > 1e-6*math.Abs(ref) {
		t.Fatalf("scaling broke root invariance: %f vs %f", got, ref)
	}
}

// TestEvaluateSiteAtRateConsistency: a single-site evaluation that reads
// its P matrices from a table filled for the scan grid has, at every grid
// rate, the bits of the exact-rate evaluation at that rate, and both are
// the term the plane kernels' Evaluate contributes for that site when the
// site carries that rate. The deep comb makes sites underflow, so the
// recursion's scaling branch is part of what is compared.
func TestEvaluateSiteAtRateConsistency(t *testing.T) {
	for _, c := range []struct {
		name      string
		f         *fixture
		wantScale bool
	}{
		{"random 7 taxa", makeFixture(t, 7, 30, model.PSR, 61), false},
		{"comb 120 taxa", deepCombPSR(t), true},
	} {
		f := c.f
		p := f.tree.Tip(0)
		steps := traversal.ForEdge(f.tree, p, 0, true)
		pRef, qRef := traversal.Ref(f.tree, p), traversal.Ref(f.tree, p.Back)
		grid := model.SiteRateGrid[:]
		var tab likelihood.SiteRateTable
		f.kern.FillSiteRateTable(&tab, steps, p.Length(0), 0, len(grid)-1)
		scaled := false
		for i := 0; i < f.kern.NPatterns(); i++ {
			// The plane kernels' term for site i: a one-pattern kernel of
			// weight 1 whose only category is the rate under test.
			one := f.pd.Select([]int{i})
			one.Weights[0] = 1
			par, err := model.NewParams(model.PSR, f.par.Freqs, 1)
			if err != nil {
				t.Fatal(err)
			}
			par.Rates = f.par.Rates
			if err := par.Rebuild(); err != nil {
				t.Fatal(err)
			}
			par.SiteRates, par.SiteCats = []float64{1}, []int{0}
			kern, err := likelihood.NewNow(one, par, f.tree.NInner())
			if err != nil {
				t.Fatal(err)
			}
			for g, r := range grid {
				exact := f.kern.EvaluateSiteAtRate(steps, pRef, qRef, p.Length(0), i, r)
				scaled = scaled || f.kern.SiteScaleCount(i) > 0
				if got := f.kern.EvaluateSiteFromTable(&tab, g, steps, pRef, qRef, i); math.Float64bits(got) != math.Float64bits(exact) {
					t.Fatalf("%s site %d rate %g: table evaluation %.17g, exact-rate evaluation %.17g", c.name, i, r, got, exact)
				}
				if g%10 != 0 {
					continue
				}
				par.CatRates = []float64{r}
				par.BumpGeneration()
				kern.Traverse(steps)
				if want := kern.Evaluate(pRef, qRef, p.Length(0)); math.Float64bits(exact) != math.Float64bits(want) {
					t.Fatalf("%s site %d rate %g: single-site evaluation %.17g, Evaluate's term %.17g", c.name, i, r, exact, want)
				}
			}
		}
		if scaled != c.wantScale {
			t.Errorf("%s: scaling branch ran: %v, want %v", c.name, scaled, c.wantScale)
		}
		fp := f.kern.Counters()
		if n := int64(f.kern.NPatterns() * len(grid)); fp[telemetry.RankSiteRateTableEvals] != n || fp[telemetry.RankSiteRateExactEvals] != n {
			t.Errorf("%s: counted %d table and %d exact evaluations, want %d each", c.name, fp[telemetry.RankSiteRateTableEvals], fp[telemetry.RankSiteRateExactEvals], n)
		}
	}
}

// deepCombPSR is a PSR fixture whose single-site recursions rescale: a
// 120-taxon comb of short branches over 12 sites.
func deepCombPSR(t *testing.T) *fixture {
	t.Helper()
	res, err := seqgen.Generate(seqgen.Config{
		NTaxa:            120,
		Specs:            []seqgen.Spec{{Name: "g", NSites: 12, Alpha: 1}},
		Seed:             55,
		MeanBranchLength: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	pd := d.Parts[0]
	par, err := model.NewParams(model.PSR, pd.Freqs, pd.NPatterns())
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.NewComb(d.Names, 1)
	tr.SetAllLengths(0.03)
	kern, err := likelihood.NewNow(pd, par, tr.NInner())
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{tree: tr, pd: pd, par: par, kern: kern}
}

// TestSiteLnLLanesMatchGoLoop: the single-site recursion in state lanes
// gives every site the log likelihood bits and scale counts of the Go
// recursion, on schedules rooted at random edges of random trees (tips and
// inner vertices on either side of a step and of the root edge) and of the
// deep comb, whose recursions rescale, at MinSiteRate, 1 and MaxSiteRate.
func TestSiteLnLLanesMatchGoLoop(t *testing.T) {
	if hostLaneWidth() == 0 {
		t.Skip("this CPU has no AVX2: the Go recursion computes every site")
	}
	defer likelihood.SetLanes(likelihood.SetLanes(8))
	rng := rand.New(rand.NewSource(28))
	fixtures := []*fixture{deepCombPSR(t)}
	for seed := int64(1); seed <= 6; seed++ {
		fixtures = append(fixtures, makeFixture(t, 4+3*int(seed), 40, model.PSR, seed))
	}
	scaled := false
	for n, f := range fixtures {
		edges := f.tree.Edges()
		for e := 0; e < 4; e++ {
			p := edges[rng.Intn(len(edges))]
			steps := traversal.ForEdge(f.tree, p, 0, true)
			pRef, qRef := traversal.Ref(f.tree, p), traversal.Ref(f.tree, p.Back)
			for _, rate := range []float64{model.MinSiteRate, 1, model.MaxSiteRate} {
				for i := 0; i < f.kern.NPatterns(); i++ {
					var lnl [2]uint64
					var sc [2]int32
					for k, width := range []int{0, 4} {
						likelihood.SetLanes(width)
						lnl[k] = math.Float64bits(f.kern.EvaluateSiteAtRate(steps, pRef, qRef, p.Length(0), i, rate))
						sc[k] = f.kern.SiteScaleCount(i)
					}
					if lnl[1] != lnl[0] || sc[1] != sc[0] {
						t.Fatalf("fixture %d, root edge at %v, rate %g, site %d: lanes give lnL %x and scale count %d, the Go recursion %x and %d", n, pRef, rate, i, lnl[1], sc[1], lnl[0], sc[0])
					}
					scaled = scaled || sc[0] > 0
				}
			}
		}
	}
	if !scaled {
		t.Error("no recursion rescaled: the scaling branch went untested")
	}
}

func TestEvaluateSiteAtRateRespondsToRate(t *testing.T) {
	f := makeFixture(t, 7, 30, model.PSR, 67)
	p := f.tree.Tip(0)
	steps := traversal.ForEdge(f.tree, p, 0, true)
	f.kern.Traverse(steps)
	pRef := traversal.Ref(f.tree, p)
	qRef := traversal.Ref(f.tree, p.Back)
	changed := false
	l1 := f.kern.EvaluateSiteAtRate(steps, pRef, qRef, p.Length(0), 0, 0.1)
	l2 := f.kern.EvaluateSiteAtRate(steps, pRef, qRef, p.Length(0), 0, 3.0)
	if l1 != l2 {
		changed = true
	}
	if !changed {
		t.Fatal("site likelihood insensitive to rate")
	}
}

func TestCLVDigest(t *testing.T) {
	f := makeFixture(t, 8, 40, model.Gamma, 71)
	f.evalAt(f.tree.Tip(0))
	d1 := f.kern.CLVDigest(0)
	if d1 == 0 {
		t.Fatal("digest of computed CLV is zero")
	}
	// Same computation on a fresh kernel gives the same digest.
	kern2, err := likelihood.NewNow(f.pd, f.par, f.tree.NInner())
	if err != nil {
		t.Fatal(err)
	}
	f2 := &fixture{tree: f.tree, pd: f.pd, par: f.par, kern: kern2}
	f2.evalAt(f.tree.Tip(0))
	if f2.kern.CLVDigest(0) != d1 {
		t.Fatal("digest not deterministic")
	}
	if f.kern.CLVDigest(f.tree.NInner()-1) == f.kern.CLVDigest(0) {
		t.Log("two slots share a digest (possible but unlikely); not failing")
	}
}

func TestKernelErrors(t *testing.T) {
	f := makeFixture(t, 6, 20, model.Gamma, 73)
	defer func() {
		if recover() == nil {
			t.Error("Derivatives from a slot never contracted must panic")
		}
	}()
	f.kern.Derivatives(0, 0.1)
}

// TestColumnsAccumulate: a kernel counts its column updates into the
// columns row of its counters — none when fresh, and one pass over its
// patterns × categories for an evaluation whose P matrices are cached.
func TestColumnsAccumulate(t *testing.T) {
	f := makeFixture(t, 8, 40, model.Gamma, 79)
	if c := f.kern.Counters()[telemetry.RankColumns]; c != 0 {
		t.Fatalf("a fresh kernel counted %d columns", c)
	}
	p := f.tree.Tip(0)
	f.evalAt(p)
	before := f.kern.Counters()[telemetry.RankColumns]
	if before == 0 {
		t.Fatal("a traversal and an evaluation counted no columns")
	}
	f.kern.Evaluate(traversal.Ref(f.tree, p), traversal.Ref(f.tree, p.Back), p.Length(0))
	if got, want := f.kern.Counters()[telemetry.RankColumns]-before, int64(f.kern.NPatterns()*model.GammaCategories); got != want {
		t.Errorf("an evaluation with its P matrices cached counted %d columns, want %d", got, want)
	}
}
