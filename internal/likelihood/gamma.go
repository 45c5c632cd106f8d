package likelihood

import (
	"math"

	"repro/internal/model"
	"repro/internal/threadpool"
)

// gammaCats is a local alias for the fixed discrete-Γ category count.
const gammaCats = model.GammaCategories

// Γ kernels: staging of the Newview and Evaluate block operations whose
// workers live in soa_gamma.go, plus the derivative worker, which reads
// only the sum table (its staging, shared with PSR, is in sumtable.go).

// newviewGamma stages the combine of operands oa and ob across branch
// lengths ta and tb into the conditional vector (dclv, dscale) under the Γ
// model — the CLV or outer slot Newview's destination names. Each pattern
// block writes a disjoint range, so the result is identical at every
// thread count.
//
// When a child is a tip, the per-site P·tipVec product is a table read
// (fastpath.go); the table entries are computed by the exact expression
// of the worker's inner side, so a tip never changes a bit of the result.
func (k *Kernel) newviewGamma(dclv []float64, dscale []int32, oa, ob operand, ta, tb float64) {
	pa := k.probMatricesFor(ta)
	pb := k.probMatricesFor(tb)

	ra := k.stage(opNvGamma)
	if oa.tips != nil && ob.tips != nil {
		k.fp.NewviewTipTip++
	}
	if oa.tips != nil {
		ra.tabA = k.tipTable(pa, oa)
	}
	if ob.tips != nil {
		ra.tabB = k.tipTable(pb, ob)
	}
	k.countSites()
	ra.dclv, ra.dscale, ra.oa, ra.ob, ra.pa, ra.pb = dclv, dscale, oa, ob, pa, pb
	k.flops.Newview += k.cols()
}

// evaluateGamma stages the weighted log likelihood summed over the local
// patterns for a virtual root on a branch of length t between op (the
// near vector) and oq (the far one). Per-block partial sums are combined
// in block-index order at the join, so the total is bit-identical to
// the serial kernel at every thread count. Only the far operand takes the
// P product, so only a far tip needs a table.
func (k *Kernel) evaluateGamma(op, oq operand, t float64) {
	pm := k.probMatricesFor(t)
	ra := k.stageReducing(opEvalGamma)
	if oq.tips != nil {
		ra.tabB = k.tipTable(pm, oq)
	}
	k.countSites()
	ra.oa, ra.ob, ra.pa, ra.catW = op, oq, pm, k.par.CatWeight()
	k.flops.Evaluate += k.cols()
}

// derivativesGammaBlock is the per-block worker of derivativesGamma. The
// sum table is plane-major (sumtable.go): site i's entry (c, k) is
// sumTab[(c·4+k)·nPat+i]. On a CPU with AVX2 the per-site terms of the
// first (hi−lo) &^ 3 sites come from laneGammaDerivatives, 64 sites a
// call, each with derivativesGammaSites' expressions, and foldTerms sums
// them in site order over the sites it marks valid; derivativesGammaSites
// does the tail.
func (k *Kernel) derivativesGammaBlock(sumTab []float64, ex, lam *[gammaCats][ns]float64, catW float64, lo, hi int) (d1, d2 float64) {
	i := lo
	var terms [laneChunk / 4]siteTerms
	for laneMask != 0 && hi-i >= 4 {
		nl := min(hi-i, laneChunk) &^ 3
		laneGammaDerivatives(terms[:], sumTab, k.data.Weights, k.nPat, i, nl, ex, lam, catW)
		d1, d2 = foldTerms(terms[:], nl, d1, d2)
		i += nl
	}
	if i < hi {
		d1, d2 = k.derivativesGammaSites(sumTab, ex, lam, catW, i, hi, d1, d2)
	}
	return d1, d2
}

// derivativesGammaSites adds the derivative terms of sites lo..hi−1 to
// (d1, d2), in site order. A site's three sums run over the categories in
// ascending order, each extending left-to-right from its running value
// (from +0) over the four eigen terms, in per-site accumulators that the
// category loop streams stride-1 over the planes; then each is scaled by
// catW.
func (k *Kernel) derivativesGammaSites(sumTab []float64, ex, lam *[gammaCats][ns]float64, catW float64, lo, hi int, d1, d2 float64) (float64, float64) {
	n := k.nPat
	w := hi - lo
	var fBuf, fpBuf, fppBuf [threadpool.BlockSize]float64
	f, fp, fpp := fBuf[:w], fpBuf[:w], fppBuf[:w]
	for c := 0; c < gammaCats; c++ {
		s0, s1, s2, s3 := planes(sumTab, c*ns, n, lo, w)
		exc, lac := &ex[c], &lam[c]
		for j := range f {
			t0 := s0[j] * exc[0]
			t1 := s1[j] * exc[1]
			t2 := s2[j] * exc[2]
			t3 := s3[j] * exc[3]
			f[j] = f[j] + t0 + t1 + t2 + t3
			fp[j] = fp[j] + lac[0]*t0 + lac[1]*t1 + lac[2]*t2 + lac[3]*t3
			fpp[j] = fpp[j] + lac[0]*lac[0]*t0 + lac[1]*lac[1]*t1 + lac[2]*lac[2]*t2 + lac[3]*lac[3]*t3
		}
	}
	weights := k.data.Weights[lo:hi]
	for j := range f {
		fj, fpj, fppj := f[j]*catW, fp[j]*catW, fpp[j]*catW
		if fj <= 0 || math.IsNaN(fj) {
			// Pathological branch proposals can underflow the unscaled
			// site likelihood; skip the site rather than poison the sum
			// (Newton falls back to bisection on bad curvature anyway).
			continue
		}
		wt := float64(weights[j])
		ratio := fpj / fj
		d1 += wt * ratio
		d2 += wt * (fppj/fj - ratio*ratio)
	}
	return d1, d2
}
