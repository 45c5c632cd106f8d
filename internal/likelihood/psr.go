package likelihood

import (
	"math"
)

// PSR kernels: one rate category per site, CLVs hold a single 4-vector per
// pattern (the 4× memory saving over Γ the paper highlights). The per-site
// category index selects which P matrix a site uses.
//
// Like the Γ kernels, every PSR kernel executes its pattern range in
// fixed-size blocks on the kernel's pool; writes are block-disjoint and
// reductions combine per-block partials in block-index order. The tip
// fast paths and P-matrix cache mirror gamma.go: identical expressions,
// identical bits (fastpath.go). The block workers live in soa_psr.go.

// newviewPSR stages the combine of operands oa and ob into the
// conditional vector (dclv, dscale) under the PSR model; see newviewGamma.
func (k *Kernel) newviewPSR(dclv []float64, dscale []int32, oa, ob operand, ta, tb float64) {
	pa := k.probMatricesFor(ta)
	pb := k.probMatricesFor(tb)

	ra := k.stage(opNvPSR)
	if oa.tips != nil && ob.tips != nil {
		k.fp.NewviewTipTip++
	}
	if oa.tips != nil {
		ra.tabA = k.tipTable(pa, oa)
	}
	if ob.tips != nil {
		ra.tabB = k.tipTable(pb, ob)
	}
	k.countSites(true)
	ra.dclv, ra.dscale, ra.oa, ra.ob, ra.pa, ra.pb = dclv, dscale, oa, ob, pa, pb
	k.flops.Newview += k.cols()
}

// evaluatePSR stages the weighted log likelihood for a virtual root on a
// branch of length t between op and oq; see evaluateGamma.
func (k *Kernel) evaluatePSR(op, oq operand, t float64) {
	pm := k.probMatricesFor(t)
	ra := k.stageReducing(opEvalPSR)
	if oq.tips != nil {
		ra.tabB = k.tipTable(pm, oq)
	}
	k.countSites(true)
	ra.oa, ra.ob, ra.pa = op, oq, pm
	k.flops.Evaluate += k.cols()
}

// derivativesPSRBlock is the per-block worker of derivativesPSR. The
// four-state loop is unrolled with constant indices into capped slices
// (no bounds checks in the hot loop); the sums associate left-to-right
// from zero — the identical expression the rolled loop evaluated, so
// the unroll is bit-invisible.
func (k *Kernel) derivativesPSRBlock(sumTab []float64, ex, lam [][ns]float64, lo, hi int) (d1, d2 float64) {
	cats := k.par.SiteCats
	for i := lo; i < hi; i++ {
		c := cats[i]
		off := i * ns
		st := sumTab[off : off+ns : off+ns]
		exc, lac := &ex[c], &lam[c]
		t0 := st[0] * exc[0]
		t1 := st[1] * exc[1]
		t2 := st[2] * exc[2]
		t3 := st[3] * exc[3]
		f := t0 + t1 + t2 + t3
		fp := lac[0]*t0 + lac[1]*t1 + lac[2]*t2 + lac[3]*t3
		fpp := lac[0]*lac[0]*t0 + lac[1]*lac[1]*t1 + lac[2]*lac[2]*t2 + lac[3]*lac[3]*t3
		if f <= 0 || math.IsNaN(f) {
			continue
		}
		w := float64(k.data.Weights[i])
		ratio := fp / f
		d1 += w * ratio
		d2 += w * (fpp/f - ratio*ratio)
	}
	return d1, d2
}
