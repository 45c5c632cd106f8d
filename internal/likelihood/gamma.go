package likelihood

import (
	"math"

	"repro/internal/model"
)

// gammaCats is a local alias for the fixed discrete-Γ category count.
const gammaCats = model.GammaCategories

// Γ kernels: staging of the block operations whose workers live in
// soa_gamma.go, plus the derivative worker, which reads only the sum
// table.

// newviewGamma combines operands oa and ob across branch lengths ta and
// tb into the conditional vector (dclv, dscale) under the Γ model — a
// post-order CLV slot for Newview, an outer vector for NewviewOuter.
// Pattern blocks run on the kernel's pool; each block writes a disjoint
// range, so the result is identical at every thread count.
//
// When a child is a tip and the fast path is enabled, the per-site
// P·tipVec product is replaced by a table read (fastpath.go); the table
// entries are computed by the exact expression of the generic loop, so
// the dispatch never changes a bit of the result.
func (k *Kernel) newviewGamma(dclv []float64, dscale []int32, oa, ob operand, ta, tb float64) {
	pa := k.probMatricesFor(ta, 0)
	pb := k.probMatricesFor(tb, 1)

	ra := &k.ra
	ra.dclv, ra.dscale, ra.oa, ra.ob, ra.pa, ra.pb = dclv, dscale, oa, ob, pa, pb
	ra.parts = k.blocks()
	if k.fastOn && oa.tips != nil && ob.tips != nil {
		k.fp.NewviewTipTip++
		tabA := k.tipTabScratch(0, gammaCats)
		k.fillTipTable(tabA, pa, oa.mask)
		tabB := k.tipTabScratch(1, gammaCats)
		k.fillTipTable(tabB, pb, ob.mask)
		ra.pair = k.pairTabScratch(gammaCats)
		k.fillPairTable(ra.pair, &k.pairScaleScr, tabA, tabB, gammaCats, oa.mask, ob.mask)
		ra.op = opNvGammaTipTip
	} else if k.fastOn && (oa.tips != nil || ob.tips != nil) {
		k.fp.NewviewTipInner++
		ra.tabA, ra.tabB = nil, nil
		if oa.tips != nil {
			ra.tabA = k.tipTabScratch(0, gammaCats)
			k.fillTipTable(ra.tabA, pa, oa.mask)
		}
		if ob.tips != nil {
			ra.tabB = k.tipTabScratch(1, gammaCats)
			k.fillTipTable(ra.tabB, pb, ob.mask)
		}
		ra.op = opNvGammaTipInner
	} else {
		k.fp.NewviewInner++
		ra.op = opNvGammaInner
	}
	k.runBlocks()
	k.flops.Newview += joinCols(ra.parts)
}

// evaluateGamma returns the weighted log likelihood summed over the local
// patterns for a virtual root on a branch of length t between op (the
// near vector) and oq (the far one). Per-block partial sums are combined
// in block-index order after the join, so the total is bit-identical to
// the serial kernel at every thread count.
//
// Only the far operand oq needs the P product, so the fast path
// dispatches on oq being a tip.
func (k *Kernel) evaluateGamma(op, oq operand, t float64) float64 {
	ra := &k.ra
	ra.oa, ra.ob, ra.pa, ra.catW = op, oq, k.probMatricesFor(t, 0), k.par.CatWeight()
	ra.parts = k.blocks()
	if k.fastOn && oq.tips != nil {
		k.fp.EvaluateTip++
		ra.tabB = k.tipTabScratch(1, gammaCats)
		k.fillTipTable(ra.tabB, ra.pa, oq.mask)
		ra.op = opEvalGammaTip
	} else {
		k.fp.EvaluateGeneric++
		ra.op = opEvalGamma
	}
	k.runBlocks()
	total := 0.0
	for b := range ra.parts {
		total += ra.parts[b].lnL
	}
	k.flops.Evaluate += joinCols(ra.parts)
	return total
}

// evaluateGammaTipBlock is the tip-tip per-block worker of evaluateGamma:
// both operands are tips, so no CLV is read. The far side's per-site
// P·tipVec dot product is a table read whose entries were computed by
// the generic expression, keeping the sum bit-identical to it.
func (k *Kernel) evaluateGammaTipBlock(op, oq operand, tab []float64, catW float64, lo, hi int) float64 {
	freqs := &k.par.Freqs
	total := 0.0
	for i := lo; i < hi; i++ {
		site := 0.0
		code := int(oq.tips[i])
		vp := k.tipVec[op.tips[i]]
		for c := 0; c < gammaCats; c++ {
			toff := (c*16 + code) * ns
			for x := 0; x < ns; x++ {
				site += freqs[x] * vp[x] * tab[toff+x] * catW
			}
		}
		total += float64(k.data.Weights[i]) * math.Log(site)
	}
	return total
}

// prepareDerivativesGamma fills the sum table for the edge (p, q):
// sumTab[((i·C)+c)·4+k] = (Σ_x π_x clvP_x U_{xk}) · (Σ_y U⁻¹_{ky} clvQ_y).
// Blocks write disjoint sum-table ranges. Tip operands use the
// category-free prep tables from fastpath.go.
func (k *Kernel) prepareDerivativesGamma(p, q NodeRef) {
	need := k.nPat * gammaCats * ns
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
		ra.op = opPrepGammaFast
	} else {
		k.fp.PrepareGeneric++
		ra.op = opPrepGamma
	}
	k.runBlocks()
	k.prepared = true
	k.flops.Derivative += joinCols(ra.parts)
}

// derivativesGamma evaluates d lnL/dt and d² lnL/dt² at branch length t
// from the prepared sum table. Per-block (d1, d2) partials combine in
// block-index order.
func (k *Kernel) derivativesGamma(t float64) (d1, d2 float64) {
	e := k.par.Eigen
	catW := k.par.CatWeight()
	// Per category, e^{λ_k r_c t} and its λ·r factors. Kept in kernel
	// scratch so staging their pointers in k.ra does not force a heap
	// escape per call.
	ex, lam := &k.exGScr, &k.lamGScr
	for c, r := range k.par.CatRates {
		for kk := 0; kk < ns; kk++ {
			l := e.Vals[kk] * r
			lam[c][kk] = l
			ex[c][kk] = math.Exp(l * t)
		}
	}
	ra := &k.ra
	ra.exG, ra.lamG, ra.catW = ex, lam, catW
	ra.parts = k.blocks()
	ra.op = opDerivGamma
	k.runBlocks()
	for b := range ra.parts {
		d1 += ra.parts[b].d1
		d2 += ra.parts[b].d2
	}
	k.flops.Derivative += joinCols(ra.parts)
	return d1, d2
}

// derivativesGammaBlock is the per-block worker of derivativesGamma.
// The four-state loop is unrolled with constant indices into a capped
// slice (no bounds checks in the hot loop); each sum extends
// left-to-right from its running value — the identical expression the
// rolled loop evaluated, so the unroll is bit-invisible.
func (k *Kernel) derivativesGammaBlock(ex, lam *[gammaCats][ns]float64, catW float64, lo, hi int) (d1, d2 float64) {
	for i := lo; i < hi; i++ {
		var f, fp, fpp float64
		base := i * gammaCats * ns
		for c := 0; c < gammaCats; c++ {
			off := base + c*ns
			st := k.sumTab[off : off+ns : off+ns]
			exc, lac := &ex[c], &lam[c]
			t0 := st[0] * exc[0]
			t1 := st[1] * exc[1]
			t2 := st[2] * exc[2]
			t3 := st[3] * exc[3]
			f = f + t0 + t1 + t2 + t3
			fp = fp + lac[0]*t0 + lac[1]*t1 + lac[2]*t2 + lac[3]*t3
			fpp = fpp + lac[0]*lac[0]*t0 + lac[1]*lac[1]*t1 + lac[2]*lac[2]*t2 + lac[3]*lac[3]*t3
		}
		f *= catW
		fp *= catW
		fpp *= catW
		if f <= 0 || math.IsNaN(f) {
			// Pathological branch proposals can underflow the unscaled
			// site likelihood; skip the site rather than poison the sum
			// (Newton falls back to bisection on bad curvature anyway).
			continue
		}
		w := float64(k.data.Weights[i])
		ratio := fp / f
		d1 += w * ratio
		d2 += w * (fpp/f - ratio*ratio)
	}
	return d1, d2
}
