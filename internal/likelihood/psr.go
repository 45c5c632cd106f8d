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
// identical bits (fastpath.go).

// newviewPSR computes the CLV at inner slot dst under the PSR model.
func (k *Kernel) newviewPSR(dst int32, a, b NodeRef, ta, tb float64) {
	pa := k.probMatricesFor(ta, 0)
	pb := k.probMatricesFor(tb, 1)

	dclv, dscale := k.slot(dst)
	oa, ob := k.operand(a), k.operand(b)
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
	// Unlike Γ, the PSR tip-tip fast path still computes per site (the
	// per-site category forbids a pair table), so the compressed path
	// applies to every operand shape; tipTip=false skips the Γ-only gate.
	if cls, reps, n, ok := k.newviewClasses(dst, a, b, oa, ob, false); ok {
		ra.cls, ra.reps = cls, reps
		ra.overReps = true
		k.runBlocks(n)
		ra.op, ra.overReps, ra.colLen = opNvCopyReps, false, ns
		k.runBlocks(k.nPat)
		k.flops.Newview += int64(n)
		k.reps.Stats.NewviewOps++
		k.reps.Stats.ColsComputed += int64(n)
		k.reps.Stats.ColsSaved += int64(k.nPat - n)
		return
	}
	ra.overReps = false
	k.runBlocks(k.nPat)
	k.flops.Newview += joinCols(ra.parts)
}

// newviewPSRBlock is the generic per-block worker of newviewPSR.
func (k *Kernel) newviewPSRBlock(dclv []float64, dscale []int32, oa, ob operand, pa, pb [][ns * ns]float64, lo, hi int) {
	cats := k.par.SiteCats
	for i := lo; i < hi; i++ {
		var sc int32
		if oa.scale != nil {
			sc += oa.scale[i]
		}
		if ob.scale != nil {
			sc += ob.scale[i]
		}
		c := cats[i]
		pca := &pa[c]
		pcb := &pb[c]
		var va, vb [ns]float64
		off := i * ns
		if oa.tips != nil {
			va = k.tipVec[oa.tips[i]]
		} else {
			va[0], va[1], va[2], va[3] = oa.clv[off], oa.clv[off+1], oa.clv[off+2], oa.clv[off+3]
		}
		if ob.tips != nil {
			vb = k.tipVec[ob.tips[i]]
		} else {
			vb[0], vb[1], vb[2], vb[3] = ob.clv[off], ob.clv[off+1], ob.clv[off+2], ob.clv[off+3]
		}
		needScale := true
		for x := 0; x < ns; x++ {
			la := pca[x*ns]*va[0] + pca[x*ns+1]*va[1] + pca[x*ns+2]*va[2] + pca[x*ns+3]*va[3]
			lb := pcb[x*ns]*vb[0] + pcb[x*ns+1]*vb[1] + pcb[x*ns+2]*vb[2] + pcb[x*ns+3]*vb[3]
			v := la * lb
			dclv[off+x] = v
			if v >= ScaleThreshold || v != v {
				needScale = false
			}
		}
		if needScale {
			for x := 0; x < ns; x++ {
				dclv[off+x] *= ScaleFactor
			}
			sc++
		}
		dscale[i] = sc
	}
}

// newviewPSRFastBlock is the tip-specialized per-block worker of
// newviewPSR; see newviewGammaFastBlock for the bit-identity argument.
func (k *Kernel) newviewPSRFastBlock(dclv []float64, dscale []int32, oa, ob operand, tabA, tabB []float64, pa, pb [][ns * ns]float64, lo, hi int) {
	cats := k.par.SiteCats
	for i := lo; i < hi; i++ {
		var sc int32
		if oa.scale != nil {
			sc += oa.scale[i]
		}
		if ob.scale != nil {
			sc += ob.scale[i]
		}
		c := cats[i]
		off := i * ns
		var la, lb [ns]float64
		if oa.tips != nil {
			toff := (c*16 + int(oa.tips[i])) * ns
			la[0], la[1], la[2], la[3] = tabA[toff], tabA[toff+1], tabA[toff+2], tabA[toff+3]
		} else {
			pca := &pa[c]
			va0, va1, va2, va3 := oa.clv[off], oa.clv[off+1], oa.clv[off+2], oa.clv[off+3]
			for x := 0; x < ns; x++ {
				la[x] = pca[x*ns]*va0 + pca[x*ns+1]*va1 + pca[x*ns+2]*va2 + pca[x*ns+3]*va3
			}
		}
		if ob.tips != nil {
			toff := (c*16 + int(ob.tips[i])) * ns
			lb[0], lb[1], lb[2], lb[3] = tabB[toff], tabB[toff+1], tabB[toff+2], tabB[toff+3]
		} else {
			pcb := &pb[c]
			vb0, vb1, vb2, vb3 := ob.clv[off], ob.clv[off+1], ob.clv[off+2], ob.clv[off+3]
			for x := 0; x < ns; x++ {
				lb[x] = pcb[x*ns]*vb0 + pcb[x*ns+1]*vb1 + pcb[x*ns+2]*vb2 + pcb[x*ns+3]*vb3
			}
		}
		needScale := true
		for x := 0; x < ns; x++ {
			v := la[x] * lb[x]
			dclv[off+x] = v
			if v >= ScaleThreshold || v != v {
				needScale = false
			}
		}
		if needScale {
			for x := 0; x < ns; x++ {
				dclv[off+x] *= ScaleFactor
			}
			sc++
		}
		dscale[i] = sc
	}
}

// evaluatePSR returns the weighted log likelihood for a virtual root on
// (p, q) with branch length t.
func (k *Kernel) evaluatePSR(p, q NodeRef, t float64) float64 {
	op, oq := k.operand(p), k.operand(q)
	k.stageEvaluatePSR(op, oq, t)
	if cls, reps, n, ok := k.evalClasses(p, q, op, oq); ok {
		total := k.evaluateRepeats(opEvalPSRLnlReps, cls, reps, n)
		k.flops.Evaluate += int64(n)
		return total
	}
	return k.runEvaluatePSR()
}

// stageEvaluatePSR stages the operands of an evaluation across a branch
// of length t.
func (k *Kernel) stageEvaluatePSR(op, oq operand, t float64) {
	ra := &k.ra
	ra.oa, ra.ob, ra.pa = op, oq, k.probMatricesFor(t, 0)
	ra.parts = k.blocks()
}

// runEvaluatePSR runs the plain (uncompressed) evaluation staged by
// stageEvaluatePSR.
func (k *Kernel) runEvaluatePSR() float64 {
	ra := &k.ra
	if k.fastOn && ra.ob.tips != nil {
		k.fp.EvaluateTip++
		ra.tabB = k.tipTabScratch(1, len(k.par.CatRates))
		k.fillTipTable(ra.tabB, ra.pa, ra.ob.mask)
		ra.op, ra.overReps = opEvalPSRTip, false
	} else {
		k.fp.EvaluateGeneric++
		ra.op, ra.overReps = opEvalPSR, false
	}
	k.runBlocks(k.nPat)
	total := 0.0
	for b := range ra.parts {
		total += ra.parts[b].lnL
	}
	k.flops.Evaluate += joinCols(ra.parts)
	return total
}

// evaluatePSRBlock is the generic per-block worker of evaluatePSR.
func (k *Kernel) evaluatePSRBlock(op, oq operand, pm [][ns * ns]float64, lo, hi int) float64 {
	cats := k.par.SiteCats
	freqs := &k.par.Freqs
	total := 0.0
	for i := lo; i < hi; i++ {
		pc := &pm[cats[i]]
		var vp, vq [ns]float64
		off := i * ns
		if op.tips != nil {
			vp = k.tipVec[op.tips[i]]
		} else {
			vp[0], vp[1], vp[2], vp[3] = op.clv[off], op.clv[off+1], op.clv[off+2], op.clv[off+3]
		}
		if oq.tips != nil {
			vq = k.tipVec[oq.tips[i]]
		} else {
			vq[0], vq[1], vq[2], vq[3] = oq.clv[off], oq.clv[off+1], oq.clv[off+2], oq.clv[off+3]
		}
		site := 0.0
		for x := 0; x < ns; x++ {
			right := pc[x*ns]*vq[0] + pc[x*ns+1]*vq[1] + pc[x*ns+2]*vq[2] + pc[x*ns+3]*vq[3]
			site += freqs[x] * vp[x] * right
		}
		var sc int32
		if op.scale != nil {
			sc += op.scale[i]
		}
		if oq.scale != nil {
			sc += oq.scale[i]
		}
		total += float64(k.data.Weights[i]) * (math.Log(site) + float64(sc)*LogScaleStep)
	}
	return total
}

// evaluatePSRTipBlock is the q-tip per-block worker of evaluatePSR.
func (k *Kernel) evaluatePSRTipBlock(op, oq operand, tab []float64, lo, hi int) float64 {
	cats := k.par.SiteCats
	freqs := &k.par.Freqs
	total := 0.0
	for i := lo; i < hi; i++ {
		var vp [ns]float64
		off := i * ns
		if op.tips != nil {
			vp = k.tipVec[op.tips[i]]
		} else {
			vp[0], vp[1], vp[2], vp[3] = op.clv[off], op.clv[off+1], op.clv[off+2], op.clv[off+3]
		}
		toff := (cats[i]*16 + int(oq.tips[i])) * ns
		site := 0.0
		for x := 0; x < ns; x++ {
			site += freqs[x] * vp[x] * tab[toff+x]
		}
		var sc int32
		if op.scale != nil {
			sc += op.scale[i]
		}
		total += float64(k.data.Weights[i]) * (math.Log(site) + float64(sc)*LogScaleStep)
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
	if cls, reps, n, ok := k.evalClasses(p, q, op, oq); ok {
		k.cachePrepClasses(cls, reps, n)
		ra.cls, ra.reps = k.prepCls, k.prepReps
		ra.overReps = true
		k.runBlocks(n)
		k.prepared = true
		k.flops.Derivative += int64(n)
		return
	}
	k.prepRepeats = false
	ra.overReps = false
	k.runBlocks(k.nPat)
	k.prepared = true
	k.flops.Derivative += joinCols(ra.parts)
}

// preparePSRBlock is the generic per-block worker of
// prepareDerivativesPSR.
func (k *Kernel) preparePSRBlock(op, oq operand, lo, hi int) {
	e := k.par.Eigen
	freqs := &k.par.Freqs
	for i := lo; i < hi; i++ {
		var vp, vq [ns]float64
		off := i * ns
		if op.tips != nil {
			vp = k.tipVec[op.tips[i]]
		} else {
			vp[0], vp[1], vp[2], vp[3] = op.clv[off], op.clv[off+1], op.clv[off+2], op.clv[off+3]
		}
		if oq.tips != nil {
			vq = k.tipVec[oq.tips[i]]
		} else {
			vq[0], vq[1], vq[2], vq[3] = oq.clv[off], oq.clv[off+1], oq.clv[off+2], oq.clv[off+3]
		}
		for kk := 0; kk < ns; kk++ {
			ap := freqs[0]*vp[0]*e.U[0*ns+kk] + freqs[1]*vp[1]*e.U[1*ns+kk] +
				freqs[2]*vp[2]*e.U[2*ns+kk] + freqs[3]*vp[3]*e.U[3*ns+kk]
			bq := e.UInv[kk*ns]*vq[0] + e.UInv[kk*ns+1]*vq[1] +
				e.UInv[kk*ns+2]*vq[2] + e.UInv[kk*ns+3]*vq[3]
			k.sumTab[off+kk] = ap * bq
		}
	}
}

// preparePSRFastBlock is the tip-specialized per-block worker of
// prepareDerivativesPSR; see prepareGammaFastBlock.
func (k *Kernel) preparePSRFastBlock(op, oq operand, tabP, tabQ []float64, lo, hi int) {
	e := k.par.Eigen
	freqs := &k.par.Freqs
	for i := lo; i < hi; i++ {
		off := i * ns
		var ap, bq [ns]float64
		if op.tips != nil {
			poff := int(op.tips[i]) * ns
			ap[0], ap[1], ap[2], ap[3] = tabP[poff], tabP[poff+1], tabP[poff+2], tabP[poff+3]
		} else {
			vp0, vp1, vp2, vp3 := op.clv[off], op.clv[off+1], op.clv[off+2], op.clv[off+3]
			for kk := 0; kk < ns; kk++ {
				ap[kk] = freqs[0]*vp0*e.U[0*ns+kk] + freqs[1]*vp1*e.U[1*ns+kk] +
					freqs[2]*vp2*e.U[2*ns+kk] + freqs[3]*vp3*e.U[3*ns+kk]
			}
		}
		if oq.tips != nil {
			qoff := int(oq.tips[i]) * ns
			bq[0], bq[1], bq[2], bq[3] = tabQ[qoff], tabQ[qoff+1], tabQ[qoff+2], tabQ[qoff+3]
		} else {
			vq0, vq1, vq2, vq3 := oq.clv[off], oq.clv[off+1], oq.clv[off+2], oq.clv[off+3]
			for kk := 0; kk < ns; kk++ {
				bq[kk] = e.UInv[kk*ns]*vq0 + e.UInv[kk*ns+1]*vq1 +
					e.UInv[kk*ns+2]*vq2 + e.UInv[kk*ns+3]*vq3
			}
		}
		for kk := 0; kk < ns; kk++ {
			k.sumTab[off+kk] = ap[kk] * bq[kk]
		}
	}
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
	if k.prepRepeats {
		d1, d2 = k.derivativesRepeats(opDerivPSRTermsReps)
		k.flops.Derivative += int64(k.prepN)
		return d1, d2
	}
	ra.op, ra.overReps = opDerivPSR, false
	k.runBlocks(k.nPat)
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
