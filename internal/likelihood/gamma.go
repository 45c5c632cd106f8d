package likelihood

import (
	"math"

	"repro/internal/model"
)

// gammaCats is a local alias for the fixed discrete-Γ category count.
const gammaCats = model.GammaCategories

// newviewGamma computes the CLV at inner slot dst from children a and b
// across branch lengths ta and tb under the Γ model. Pattern blocks run
// on the kernel's pool; each block writes a disjoint CLV range, so the
// result is identical at every thread count.
//
// When a child is a tip and the fast path is enabled, the per-site
// P·tipVec product is replaced by a table read (fastpath.go); the table
// entries are computed by the exact expression of the generic loop, so
// the dispatch never changes a bit of the result.
func (k *Kernel) newviewGamma(dst int32, a, b NodeRef, ta, tb float64) {
	pa := k.probMatricesFor(ta, 0)
	pb := k.probMatricesFor(tb, 1)

	dclv, dscale := k.slot(dst)
	oa, ob := k.operand(a), k.operand(b)
	ra := &k.ra
	ra.dclv, ra.dscale, ra.oa, ra.ob, ra.pa, ra.pb = dclv, dscale, oa, ob, pa, pb
	ra.parts = k.blocks()
	tipTip := oa.tips != nil && ob.tips != nil
	if cls, reps, n, ok := k.newviewClasses(dst, a, b, oa, ob, tipTip); ok {
		// Compressed path (repeats.go): one column per repeat class,
		// computed by the plain path's own block workers one
		// representative site at a time, then byte-copied to the
		// duplicates.
		ra.cls, ra.reps = cls, reps
		ra.tabA, ra.tabB = nil, nil
		if k.fastOn && (oa.tips != nil || ob.tips != nil) {
			k.fp.NewviewTipInner++
			if oa.tips != nil {
				ra.tabA = k.tipTabScratch(0, gammaCats)
				k.fillTipTable(ra.tabA, pa, oa.mask)
			}
			if ob.tips != nil {
				ra.tabB = k.tipTabScratch(1, gammaCats)
				k.fillTipTable(ra.tabB, pb, ob.mask)
			}
			ra.op, ra.overReps = opNvGammaTipInner, true
		} else {
			k.fp.NewviewInner++
			ra.op, ra.overReps = opNvGammaInner, true
		}
		k.runBlocks(n)
		ra.op, ra.overReps, ra.colLen = opNvCopyReps, false, gammaCats*ns
		k.runBlocks(k.nPat)
		k.flops.Newview += int64(n) * gammaCats
		k.reps.Stats.NewviewOps++
		k.reps.Stats.ColsComputed += int64(n)
		k.reps.Stats.ColsSaved += int64(k.nPat - n)
		return
	}
	if k.fastOn && tipTip {
		k.fp.NewviewTipTip++
		tabA := k.tipTabScratch(0, gammaCats)
		k.fillTipTable(tabA, pa, oa.mask)
		tabB := k.tipTabScratch(1, gammaCats)
		k.fillTipTable(tabB, pb, ob.mask)
		ra.pair = k.pairTabScratch(gammaCats)
		k.fillPairTable(ra.pair, &k.pairScaleScr, tabA, tabB, gammaCats, oa.mask, ob.mask)
		ra.op, ra.overReps = opNvGammaTipTip, false
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
		ra.op, ra.overReps = opNvGammaTipInner, false
	} else {
		k.fp.NewviewInner++
		ra.op, ra.overReps = opNvGammaInner, false
	}
	k.runBlocks(k.nPat)
	k.flops.Newview += joinCols(ra.parts)
}

// newviewGammaBlock is the generic (inner-inner) per-block worker of
// newviewGamma.
func (k *Kernel) newviewGammaBlock(dclv []float64, dscale []int32, oa, ob operand, pa, pb [][ns * ns]float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var sc int32
		if oa.scale != nil {
			sc += oa.scale[i]
		}
		if ob.scale != nil {
			sc += ob.scale[i]
		}
		needScale := true
		base := i * gammaCats * ns
		for c := 0; c < gammaCats; c++ {
			pca := &pa[c]
			pcb := &pb[c]
			// Gather child likelihood columns for this category.
			var va, vb [ns]float64
			if oa.tips != nil {
				va = k.tipVec[oa.tips[i]]
			} else {
				off := base + c*ns
				va[0], va[1], va[2], va[3] = oa.clv[off], oa.clv[off+1], oa.clv[off+2], oa.clv[off+3]
			}
			if ob.tips != nil {
				vb = k.tipVec[ob.tips[i]]
			} else {
				off := base + c*ns
				vb[0], vb[1], vb[2], vb[3] = ob.clv[off], ob.clv[off+1], ob.clv[off+2], ob.clv[off+3]
			}
			off := base + c*ns
			for x := 0; x < ns; x++ {
				la := pca[x*ns]*va[0] + pca[x*ns+1]*va[1] + pca[x*ns+2]*va[2] + pca[x*ns+3]*va[3]
				lb := pcb[x*ns]*vb[0] + pcb[x*ns+1]*vb[1] + pcb[x*ns+2]*vb[2] + pcb[x*ns+3]*vb[3]
				v := la * lb
				dclv[off+x] = v
				if v >= ScaleThreshold || v != v {
					needScale = false
				}
			}
		}
		if needScale {
			for j := base; j < base+gammaCats*ns; j++ {
				dclv[j] *= ScaleFactor
			}
			sc++
		}
		dscale[i] = sc
	}
}

// newviewGammaTipTipBlock is the tip-tip per-block worker: a site's
// whole CLV column (scaling already applied) is a contiguous copy from
// the pair-product table and its scale count a table read — zero
// per-site arithmetic, bit-identical to the generic block by the
// fillPairTable construction.
func (k *Kernel) newviewGammaTipTipBlock(dclv []float64, dscale []int32, oa, ob operand, pair []float64, psc *[256]int32, lo, hi int) {
	tipsA, tipsB := oa.tips, ob.tips
	const colLen = gammaCats * ns
	for i := lo; i < hi; i++ {
		pi := int(tipsA[i])*16 + int(tipsB[i])
		copy(dclv[i*colLen:(i+1)*colLen], pair[pi*colLen:(pi+1)*colLen])
		dscale[i] = psc[pi]
	}
}

// newviewGammaTipInnerBlock is the mixed per-block worker: the tip side
// reads its precomputed P·tipVec table, the inner side evaluates the
// same dot product the generic block does. Each per-state factor is
// produced by the identical expression either way, and the final product
// keeps the a·b order, so the CLV bits match the generic block exactly.
func (k *Kernel) newviewGammaTipInnerBlock(dclv []float64, dscale []int32, oa, ob operand, tabA, tabB []float64, pa, pb [][ns * ns]float64, lo, hi int) {
	if oa.tips != nil {
		tips, clv, scale := oa.tips, ob.clv, ob.scale
		for i := lo; i < hi; i++ {
			var sc int32
			if scale != nil {
				sc = scale[i]
			}
			needScale := true
			base := i * gammaCats * ns
			code := int(tips[i])
			for c := 0; c < gammaCats; c++ {
				off := base + c*ns
				toff := (c*16 + code) * ns
				pcb := &pb[c]
				vb0, vb1, vb2, vb3 := clv[off], clv[off+1], clv[off+2], clv[off+3]
				for x := 0; x < ns; x++ {
					la := tabA[toff+x]
					lb := pcb[x*ns]*vb0 + pcb[x*ns+1]*vb1 + pcb[x*ns+2]*vb2 + pcb[x*ns+3]*vb3
					v := la * lb
					dclv[off+x] = v
					if v >= ScaleThreshold || v != v {
						needScale = false
					}
				}
			}
			if needScale {
				for j := base; j < base+gammaCats*ns; j++ {
					dclv[j] *= ScaleFactor
				}
				sc++
			}
			dscale[i] = sc
		}
		return
	}
	tips, clv, scale := ob.tips, oa.clv, oa.scale
	for i := lo; i < hi; i++ {
		var sc int32
		if scale != nil {
			sc = scale[i]
		}
		needScale := true
		base := i * gammaCats * ns
		code := int(tips[i])
		for c := 0; c < gammaCats; c++ {
			off := base + c*ns
			toff := (c*16 + code) * ns
			pca := &pa[c]
			va0, va1, va2, va3 := clv[off], clv[off+1], clv[off+2], clv[off+3]
			for x := 0; x < ns; x++ {
				la := pca[x*ns]*va0 + pca[x*ns+1]*va1 + pca[x*ns+2]*va2 + pca[x*ns+3]*va3
				lb := tabB[toff+x]
				v := la * lb
				dclv[off+x] = v
				if v >= ScaleThreshold || v != v {
					needScale = false
				}
			}
		}
		if needScale {
			for j := base; j < base+gammaCats*ns; j++ {
				dclv[j] *= ScaleFactor
			}
			sc++
		}
		dscale[i] = sc
	}
}

// evaluateGamma returns the weighted log likelihood summed over the local
// patterns for a virtual root on the edge (p, q) of length t. Per-block
// partial sums are combined in block-index order after the join, so the
// total is bit-identical to the serial kernel at every thread count.
//
// Only the far operand q needs the P product, so the fast path dispatches
// on q being a tip.
func (k *Kernel) evaluateGamma(p, q NodeRef, t float64) float64 {
	op, oq := k.operand(p), k.operand(q)
	k.stageEvaluateGamma(op, oq, t)
	if cls, reps, n, ok := k.evalClasses(p, q, op, oq); ok {
		// Compressed path: one site-lnl per repeat class at the class's
		// representative site, then a per-site weighted sum (repeats.go).
		total := k.evaluateRepeats(opEvalGammaLnlReps, cls, reps, n)
		k.flops.Evaluate += int64(n) * gammaCats
		return total
	}
	return k.runEvaluateGamma()
}

// stageEvaluateGamma stages the operands of an evaluation across a
// branch of length t.
func (k *Kernel) stageEvaluateGamma(op, oq operand, t float64) {
	ra := &k.ra
	ra.oa, ra.ob, ra.pa, ra.catW = op, oq, k.probMatricesFor(t, 0), k.par.CatWeight()
	ra.parts = k.blocks()
}

// runEvaluateGamma runs the plain (uncompressed) evaluation staged by
// stageEvaluateGamma.
func (k *Kernel) runEvaluateGamma() float64 {
	ra := &k.ra
	if k.fastOn && ra.ob.tips != nil {
		k.fp.EvaluateTip++
		ra.tabB = k.tipTabScratch(1, gammaCats)
		k.fillTipTable(ra.tabB, ra.pa, ra.ob.mask)
		ra.op, ra.overReps = opEvalGammaTip, false
	} else {
		k.fp.EvaluateGeneric++
		ra.op, ra.overReps = opEvalGamma, false
	}
	k.runBlocks(k.nPat)
	total := 0.0
	for b := range ra.parts {
		total += ra.parts[b].lnL
	}
	k.flops.Evaluate += joinCols(ra.parts)
	return total
}

// evaluateGammaBlock is the generic per-block worker of evaluateGamma.
func (k *Kernel) evaluateGammaBlock(op, oq operand, pm [][ns * ns]float64, catW float64, lo, hi int) float64 {
	freqs := &k.par.Freqs
	total := 0.0
	for i := lo; i < hi; i++ {
		site := 0.0
		base := i * gammaCats * ns
		for c := 0; c < gammaCats; c++ {
			pc := &pm[c]
			var vp, vq [ns]float64
			if op.tips != nil {
				vp = k.tipVec[op.tips[i]]
			} else {
				off := base + c*ns
				vp[0], vp[1], vp[2], vp[3] = op.clv[off], op.clv[off+1], op.clv[off+2], op.clv[off+3]
			}
			if oq.tips != nil {
				vq = k.tipVec[oq.tips[i]]
			} else {
				off := base + c*ns
				vq[0], vq[1], vq[2], vq[3] = oq.clv[off], oq.clv[off+1], oq.clv[off+2], oq.clv[off+3]
			}
			for x := 0; x < ns; x++ {
				right := pc[x*ns]*vq[0] + pc[x*ns+1]*vq[1] + pc[x*ns+2]*vq[2] + pc[x*ns+3]*vq[3]
				site += freqs[x] * vp[x] * right * catW
			}
		}
		var sc int32
		if op.scale != nil {
			sc += op.scale[i]
		}
		if oq.scale != nil {
			sc += oq.scale[i]
		}
		lnl := math.Log(site) + float64(sc)*LogScaleStep
		total += float64(k.data.Weights[i]) * lnl
	}
	return total
}

// evaluateGammaTipBlock is the q-tip per-block worker of evaluateGamma:
// the per-site P·tipVec dot product becomes a table read whose entries
// were computed by the generic expression, keeping the sum bit-identical.
func (k *Kernel) evaluateGammaTipBlock(op, oq operand, tab []float64, catW float64, lo, hi int) float64 {
	freqs := &k.par.Freqs
	total := 0.0
	for i := lo; i < hi; i++ {
		site := 0.0
		base := i * gammaCats * ns
		code := int(oq.tips[i])
		for c := 0; c < gammaCats; c++ {
			var vp [ns]float64
			if op.tips != nil {
				vp = k.tipVec[op.tips[i]]
			} else {
				off := base + c*ns
				vp[0], vp[1], vp[2], vp[3] = op.clv[off], op.clv[off+1], op.clv[off+2], op.clv[off+3]
			}
			toff := (c*16 + code) * ns
			for x := 0; x < ns; x++ {
				site += freqs[x] * vp[x] * tab[toff+x] * catW
			}
		}
		var sc int32
		if op.scale != nil {
			sc += op.scale[i]
		}
		lnl := math.Log(site) + float64(sc)*LogScaleStep
		total += float64(k.data.Weights[i]) * lnl
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
	if cls, reps, n, ok := k.evalClasses(p, q, op, oq); ok {
		// Compressed path: fill the sum table only at the representative
		// sites and remember the classes for derivativesGamma
		// (repeats.go). Evaluate may run between Prepare and Derivatives
		// and reuses the eval scratch, hence the cached copy.
		k.cachePrepClasses(cls, reps, n)
		ra.cls, ra.reps = k.prepCls, k.prepReps
		ra.overReps = true
		k.runBlocks(n)
		k.prepared = true
		k.flops.Derivative += int64(n) * gammaCats
		return
	}
	k.prepRepeats = false
	ra.overReps = false
	k.runBlocks(k.nPat)
	k.prepared = true
	k.flops.Derivative += joinCols(ra.parts)
}

// prepareGammaBlock is the generic per-block worker of
// prepareDerivativesGamma.
func (k *Kernel) prepareGammaBlock(op, oq operand, lo, hi int) {
	e := k.par.Eigen
	freqs := &k.par.Freqs
	for i := lo; i < hi; i++ {
		base := i * gammaCats * ns
		for c := 0; c < gammaCats; c++ {
			var vp, vq [ns]float64
			if op.tips != nil {
				vp = k.tipVec[op.tips[i]]
			} else {
				off := base + c*ns
				vp[0], vp[1], vp[2], vp[3] = op.clv[off], op.clv[off+1], op.clv[off+2], op.clv[off+3]
			}
			if oq.tips != nil {
				vq = k.tipVec[oq.tips[i]]
			} else {
				off := base + c*ns
				vq[0], vq[1], vq[2], vq[3] = oq.clv[off], oq.clv[off+1], oq.clv[off+2], oq.clv[off+3]
			}
			off := base + c*ns
			for kk := 0; kk < ns; kk++ {
				ap := freqs[0]*vp[0]*e.U[0*ns+kk] + freqs[1]*vp[1]*e.U[1*ns+kk] +
					freqs[2]*vp[2]*e.U[2*ns+kk] + freqs[3]*vp[3]*e.U[3*ns+kk]
				bq := e.UInv[kk*ns]*vq[0] + e.UInv[kk*ns+1]*vq[1] +
					e.UInv[kk*ns+2]*vq[2] + e.UInv[kk*ns+3]*vq[3]
				k.sumTab[off+kk] = ap * bq
			}
		}
	}
}

// prepareGammaFastBlock is the tip-specialized per-block worker: a tip
// side reads its prep table (entries computed by the generic expression),
// an inner side evaluates the generic expression in place; the final
// ap·bq product order is unchanged, so the sum table bits match.
func (k *Kernel) prepareGammaFastBlock(op, oq operand, tabP, tabQ []float64, lo, hi int) {
	e := k.par.Eigen
	freqs := &k.par.Freqs
	for i := lo; i < hi; i++ {
		base := i * gammaCats * ns
		for c := 0; c < gammaCats; c++ {
			off := base + c*ns
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
	if k.prepRepeats {
		// Compressed path: per-class Newton terms at the representative
		// sites cached by prepareDerivativesGamma, then a per-site
		// weighted sum (repeats.go).
		d1, d2 = k.derivativesRepeats(opDerivGammaTermsReps)
		k.flops.Derivative += int64(k.prepN) * gammaCats
		return d1, d2
	}
	ra.op, ra.overReps = opDerivGamma, false
	k.runBlocks(k.nPat)
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
