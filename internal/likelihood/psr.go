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

// newviewPSR combines operands oa and ob into the conditional vector
// (dclv, dscale) under the PSR model; see newviewGamma.
func (k *Kernel) newviewPSR(dclv []float64, dscale []int32, oa, ob operand, ta, tb float64) {
	pa := k.probMatricesFor(ta, 0)
	pb := k.probMatricesFor(tb, 1)

	ra := &k.ra
	ra.dclv, ra.dscale, ra.oa, ra.ob, ra.pa, ra.pb = dclv, dscale, oa, ob, pa, pb
	ra.parts = k.blocks()
	if k.fastOn && (oa.tips != nil || ob.tips != nil) {
		if oa.tips != nil && ob.tips != nil {
			k.fp.NewviewTipTip++
		} else {
			k.fp.NewviewTipInner++
		}
		nc := len(k.par.CatRates)
		ra.tabA, ra.tabB = nil, nil
		if oa.tips != nil {
			ra.tabA = k.tipTabScratch(0, nc)
			k.fillTipTable(ra.tabA, pa, oa.mask)
		}
		if ob.tips != nil {
			ra.tabB = k.tipTabScratch(1, nc)
			k.fillTipTable(ra.tabB, pb, ob.mask)
		}
		ra.op = opNvPSRFast
	} else {
		k.fp.NewviewInner++
		ra.op = opNvPSRInner
	}
	k.runBlocks()
	k.flops.Newview += joinCols(ra.parts)
}

// evaluatePSR returns the weighted log likelihood for a virtual root on
// a branch of length t between op and oq; see evaluateGamma.
func (k *Kernel) evaluatePSR(op, oq operand, t float64) float64 {
	ra := &k.ra
	ra.oa, ra.ob, ra.pa = op, oq, k.probMatricesFor(t, 0)
	ra.parts = k.blocks()
	if k.fastOn && oq.tips != nil {
		k.fp.EvaluateTip++
		ra.tabB = k.tipTabScratch(1, len(k.par.CatRates))
		k.fillTipTable(ra.tabB, ra.pa, oq.mask)
		ra.op = opEvalPSRTip
	} else {
		k.fp.EvaluateGeneric++
		ra.op = opEvalPSR
	}
	k.runBlocks()
	total := 0.0
	for b := range ra.parts {
		total += ra.parts[b].lnL
	}
	k.flops.Evaluate += joinCols(ra.parts)
	return total
}

// evaluatePSRTipBlock is the tip-tip per-block worker of evaluatePSR:
// both operands are tips, so no CLV is read.
func (k *Kernel) evaluatePSRTipBlock(op, oq operand, tab []float64, lo, hi int) float64 {
	cats := k.par.SiteCats
	freqs := &k.par.Freqs
	total := 0.0
	for i := lo; i < hi; i++ {
		vp := k.tipVec[op.tips[i]]
		toff := (cats[i]*16 + int(oq.tips[i])) * ns
		site := 0.0
		for x := 0; x < ns; x++ {
			site += freqs[x] * vp[x] * tab[toff+x]
		}
		total += float64(k.data.Weights[i]) * math.Log(site)
	}
	return total
}

// prepareDerivativesPSR fills the PSR sum table: sumTab[i·4+k].
func (k *Kernel) prepareDerivativesPSR(p, q NodeRef) {
	need := k.nPat * ns
	if cap(k.sumTab) < need {
		k.sumTab = make([]float64, need)
	}
	k.sumTab = k.sumTab[:need]

	op, oq := k.operand(p), k.operand(q)
	ra := &k.ra
	ra.oa, ra.ob = op, oq
	ra.parts = k.blocks()
	if k.fastOn && (op.tips != nil || oq.tips != nil) {
		k.fp.PrepareTip++
		tabP, tabQ := k.prepTabScratch()
		if op.tips != nil {
			k.fillPrepTipP(tabP, op.mask)
		}
		if oq.tips != nil {
			k.fillPrepTipQ(tabQ, oq.mask)
		}
		ra.tabA, ra.tabB = tabP, tabQ
		ra.op = opPrepPSRFast
	} else {
		k.fp.PrepareGeneric++
		ra.op = opPrepPSR
	}
	k.runBlocks()
	k.prepared = true
	k.flops.Derivative += joinCols(ra.parts)
}

// derivativesPSR evaluates (d1, d2) at branch length t from the PSR sum
// table.
func (k *Kernel) derivativesPSR(t float64) (d1, d2 float64) {
	e := k.par.Eigen
	// Per category, e^{λ_k r_c t} and its λ·r factors, in kernel scratch
	// so the hot path stays allocation-free.
	ex, lam := k.psrExLamScratch(len(k.par.CatRates))
	for c, r := range k.par.CatRates {
		for kk := 0; kk < ns; kk++ {
			l := e.Vals[kk] * r
			lam[c][kk] = l
			ex[c][kk] = math.Exp(l * t)
		}
	}
	ra := &k.ra
	ra.exP, ra.lamP = ex, lam
	ra.parts = k.blocks()
	ra.op = opDerivPSR
	k.runBlocks()
	for b := range ra.parts {
		d1 += ra.parts[b].d1
		d2 += ra.parts[b].d2
	}
	k.flops.Derivative += joinCols(ra.parts)
	return d1, d2
}

// psrExLamScratch returns the kernel's reusable per-category exponent
// and eigenvalue-factor buffers, sized for nc categories.
func (k *Kernel) psrExLamScratch(nc int) (ex, lam [][ns]float64) {
	if cap(k.exPScr) < nc {
		k.exPScr = make([][ns]float64, nc)
		k.lamPScr = make([][ns]float64, nc)
	}
	return k.exPScr[:nc], k.lamPScr[:nc]
}

// derivativesPSRBlock is the per-block worker of derivativesPSR. The
// four-state loop is unrolled with constant indices into capped slices
// (no bounds checks in the hot loop); the sums associate left-to-right
// from zero — the identical expression the rolled loop evaluated, so
// the unroll is bit-invisible.
func (k *Kernel) derivativesPSRBlock(ex, lam [][ns]float64, lo, hi int) (d1, d2 float64) {
	cats := k.par.SiteCats
	for i := lo; i < hi; i++ {
		c := cats[i]
		off := i * ns
		st := k.sumTab[off : off+ns : off+ns]
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
