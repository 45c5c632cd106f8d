package likelihood

import (
	"repro/internal/model"
	"repro/internal/threadpool"
)

// SPR insertion scoring (docs/PERFORMANCE.md §8).
//
// Inserting a pruned subtree into a candidate edge creates one vertex:
// v = (P_half·near) ∘ (P_half·far), the Newview combine of the edge's two
// directional vectors across half its length each. The candidate's score
// is the evaluation of v against the subtree's vector across the
// subtree's branch. Done with the general kernels that is a whole CLV
// written (plus its scaling pass) and read back once per candidate, and
// P(subT)·sub recomputed per candidate although neither factor changes
// within a prune point. Here the pair is one block operation:
//
//   - PrepareInsertion fills, once per prune point, a CLV-shaped table
//     with P(subT)·sub — the `right` factor of the evaluation workers;
//   - ScoreInsertion forms v per site in registers, takes the scaling
//     decision Newview would have taken, and accumulates
//     π_x · v_x · table_x · catW in evaluation's ascending (category,
//     state) order.
//
// Every site value is produced by the Newview workers' expression and
// every term by the evaluation workers', in their order, so a score has
// the bits of Newview into a free outer slot followed by Evaluate
// (TestInsertionScoreBitIdentical). π is deliberately not folded into
// the table: evaluation associates ((π·v)·right)·catW, and a table of
// π·right would associate (v·(π·right))·catW — a different last bit.
// The score workers run in vector lanes like the Newview and evaluation
// workers (lanes.go): Γ sites four at a time, PSR sites one at a time in
// state lanes; their logs too, and the sums over sites stay in Go.

// PrepareInsertion stages the fill of the insertion table for the pruned
// subtree's vector sub hanging on a branch of length t: table = P(t)·sub,
// laid out like a CLV. A tip subtree gathers its entries from the tip
// table, an inner one computes the evaluation workers' `right`
// expression. The table serves the ScoreInsertion calls staged after it
// — in the same program or a later one — until the next
// PrepareInsertion, as long as sub's vector and the model parameters are
// unchanged.
func (k *Kernel) PrepareInsertion(sub Ref, t float64) {
	if len(k.insTab) != k.clvLen() {
		k.insTab = make([]float64, k.clvLen())
	}
	oq := k.operand(sub)
	pm := k.probMatricesFor(t)
	ra := k.stage(opPrepInsGamma)
	if k.par.Het != model.Gamma {
		ra.op = opPrepInsPSR
	}
	ra.ob, ra.pa = oq, pm
	k.stageFarTable(ra, oq)
	k.insSubScale = oq.scale
	k.flops.Evaluate += k.cols()
}

// ScoreInsertion stages the weighted log likelihood of the tree with the
// prepared subtree inserted into the edge between near and far, either
// half of which gets length half: bit for bit what Newview of (near,
// far) across (half, half) into a free outer slot followed by Evaluate
// of that slot against the subtree yields, without the slot; the value
// is the finished program's next result (LnL). near must
// be a CLV or an outer vector (an insertion plan's near operand is the
// outer vector its pre-order step computed); far may also be a tip.
func (k *Kernel) ScoreInsertion(near, far Ref, half float64) {
	oa, ob := k.operand(near), k.operand(far)
	// Newview builds P(half) once per operand; one set serves both, being
	// the same doubles.
	pm := k.probMatricesFor(half)
	code := opInsPSR
	if k.par.Het == model.Gamma {
		code = opInsGamma
		if ob.tips != nil {
			code = opInsGammaTip
		}
	}
	k.countSites(true)
	ra := k.stageReducing(code)
	ra.oa, ra.ob, ra.pa, ra.catW = oa, ob, pm, k.par.CatWeight()
	k.stageFarTable(ra, ob)
	k.flops.Evaluate += 2 * k.cols()
}

// stageFarTable gives ra the P·tipVec table of its matrices ra.pa when o
// — the operand that takes the P product — is a tip.
func (k *Kernel) stageFarTable(ra *runArgs, o operand) {
	if o.tips != nil {
		ra.tabB = k.tipTable(ra.pa, o)
	}
}

// prepareInsertionGammaSoABlock fills the block's range of the Γ
// insertion table: per (category, state) plane the `right` expression of
// evaluateGammaSoABlock, or for a tip subtree the table entry
// evaluateGammaTipSoABlock reads in its place.
func (k *Kernel) prepareInsertionGammaSoABlock(oq operand, pm [][ns * ns]float64, tab []float64, lo, hi int) {
	n := k.nPat
	w := hi - lo
	for c := 0; c < gammaCats; c++ {
		if oq.tips != nil {
			tips := oq.tips[lo:][:w]
			tbase := c * 16 * ns
			for x := 0; x < ns; x++ {
				d := window(k.insTab, (c*ns+x)*n+lo, w)
				for j := range d {
					d[j] = tab[tbase+int(tips[j])*ns+x]
				}
			}
			continue
		}
		pc := &pm[c]
		q0, q1, q2, q3 := planes(oq.clv, c*ns, n, lo, w)
		for x := 0; x < ns; x++ {
			r0, r1, r2, r3 := pc[x*ns], pc[x*ns+1], pc[x*ns+2], pc[x*ns+3]
			d := window(k.insTab, (c*ns+x)*n+lo, w)
			for j := range d {
				right := r0*q0[j] + r1*q1[j] + r2*q2[j] + r3*q3[j]
				d[j] = right
			}
		}
	}
}

// scoreInsertionGammaSoABlock is the Γ worker for an inner far operand:
// newviewGammaSoABlock's value per site and category, its scaling
// predicate, and evaluateGammaSoABlock's accumulation against the
// insertion table.
func (k *Kernel) scoreInsertionGammaSoABlock(oa, ob operand, pm [][ns * ns]float64, catW float64, lo, hi int) (lnL float64, rescaled int64) {
	w := hi - lo
	var noScaleBuf [threadpool.BlockSize]bool
	var siteBuf [threadpool.BlockSize]float64
	noScale, site := noScaleBuf[:w], siteBuf[:w]
	k.scoreInsertionGammaSites(site, noScale, oa, ob, pm, catW, lo)
	return k.finishInsertionGamma(site, noScale, oa, ob, pm, nil, catW, lo)
}

// scoreInsertionGammaSites accumulates the per-site likelihoods of
// scoreInsertionGammaSoABlock's block into site and its scale decisions
// into noScale (both zeroed).
func (k *Kernel) scoreInsertionGammaSites(site []float64, noScale []bool, oa, ob operand, pm [][ns * ns]float64, catW float64, lo int) {
	freqs := &k.par.Freqs
	f0, f1, f2, f3 := freqs[0], freqs[1], freqs[2], freqs[3]
	n := k.nPat
	w := len(site)
	noScale = noScale[:w]
	nl := w & laneMask
	for c := 0; c < gammaCats; c++ {
		// One matrix set under Newview's two names: the expressions below
		// are newviewGammaSoABlock's, letter for letter.
		pca, pcb := &pm[c], &pm[c]
		a0, a1, a2, a3 := planes(oa.clv, c*ns, n, lo, w)
		b0, b1, b2, b3 := planes(ob.clv, c*ns, n, lo, w)
		t0, t1, t2, t3 := planes(k.insTab, c*ns, n, lo, w)
		laneScore(site, a0, b0, t0, n, pca, f0, f1, f2, f3, catW, noScale, nl)
		for j := nl; j < len(site); j++ {
			av0, av1, av2, av3 := a0[j], a1[j], a2[j], a3[j]
			bv0, bv1, bv2, bv3 := b0[j], b1[j], b2[j], b3[j]
			v0 := (pca[0]*av0 + pca[1]*av1 + pca[2]*av2 + pca[3]*av3) *
				(pcb[0]*bv0 + pcb[1]*bv1 + pcb[2]*bv2 + pcb[3]*bv3)
			v1 := (pca[4]*av0 + pca[5]*av1 + pca[6]*av2 + pca[7]*av3) *
				(pcb[4]*bv0 + pcb[5]*bv1 + pcb[6]*bv2 + pcb[7]*bv3)
			v2 := (pca[8]*av0 + pca[9]*av1 + pca[10]*av2 + pca[11]*av3) *
				(pcb[8]*bv0 + pcb[9]*bv1 + pcb[10]*bv2 + pcb[11]*bv3)
			v3 := (pca[12]*av0 + pca[13]*av1 + pca[14]*av2 + pca[15]*av3) *
				(pcb[12]*bv0 + pcb[13]*bv1 + pcb[14]*bv2 + pcb[15]*bv3)
			if v0 >= ScaleThreshold || v0 != v0 ||
				v1 >= ScaleThreshold || v1 != v1 ||
				v2 >= ScaleThreshold || v2 != v2 ||
				v3 >= ScaleThreshold || v3 != v3 {
				noScale[j] = true
			}
			s := site[j]
			s += f0 * v0 * t0[j] * catW
			s += f1 * v1 * t1[j] * catW
			s += f2 * v2 * t2[j] * catW
			s += f3 * v3 * t3[j] * catW
			site[j] = s
		}
	}
}

// scoreInsertionGammaTipSoABlock is the Γ worker for a tip far operand:
// the far factor is newviewGammaTipInnerSoABlock's table read.
func (k *Kernel) scoreInsertionGammaTipSoABlock(oa, ob operand, pm [][ns * ns]float64, tabB []float64, catW float64, lo, hi int) (lnL float64, rescaled int64) {
	w := hi - lo
	var noScaleBuf [threadpool.BlockSize]bool
	var siteBuf [threadpool.BlockSize]float64
	noScale, site := noScaleBuf[:w], siteBuf[:w]
	k.scoreInsertionGammaTipSites(site, noScale, oa, ob, pm, tabB, catW, lo)
	return k.finishInsertionGamma(site, noScale, oa, ob, pm, tabB, catW, lo)
}

// scoreInsertionGammaTipSites is scoreInsertionGammaSites for a tip far
// operand.
func (k *Kernel) scoreInsertionGammaTipSites(site []float64, noScale []bool, oa, ob operand, pm [][ns * ns]float64, tabB []float64, catW float64, lo int) {
	freqs := &k.par.Freqs
	f0, f1, f2, f3 := freqs[0], freqs[1], freqs[2], freqs[3]
	n := k.nPat
	w := len(site)
	noScale = noScale[:w]
	nl := w & laneMask
	tips := ob.tips[lo:][:w]
	for c := 0; c < gammaCats; c++ {
		pca := &pm[c]
		a0, a1, a2, a3 := planes(oa.clv, c*ns, n, lo, w)
		t0, t1, t2, t3 := planes(k.insTab, c*ns, n, lo, w)
		tbase := c * 16 * ns
		laneScoreTip(site, a0, tips, tabB, tbase, t0, n, pca, f0, f1, f2, f3, catW, noScale, nl)
		for j := nl; j < len(site); j++ {
			t := tbase + int(tips[j])*ns
			av0, av1, av2, av3 := a0[j], a1[j], a2[j], a3[j]
			v0 := (pca[0]*av0 + pca[1]*av1 + pca[2]*av2 + pca[3]*av3) * tabB[t]
			v1 := (pca[4]*av0 + pca[5]*av1 + pca[6]*av2 + pca[7]*av3) * tabB[t+1]
			v2 := (pca[8]*av0 + pca[9]*av1 + pca[10]*av2 + pca[11]*av3) * tabB[t+2]
			v3 := (pca[12]*av0 + pca[13]*av1 + pca[14]*av2 + pca[15]*av3) * tabB[t+3]
			if v0 >= ScaleThreshold || v0 != v0 ||
				v1 >= ScaleThreshold || v1 != v1 ||
				v2 >= ScaleThreshold || v2 != v2 ||
				v3 >= ScaleThreshold || v3 != v3 {
				noScale[j] = true
			}
			s := site[j]
			s += f0 * v0 * t0[j] * catW
			s += f1 * v1 * t1[j] * catW
			s += f2 * v2 * t2[j] * catW
			s += f3 * v3 * t3[j] * catW
			site[j] = s
		}
	}
}

// finishInsertionGamma is the tail of the Γ insertion workers: the
// block's weighted log likelihood from its per-site likelihoods and the
// three operands' scale counts. A site no category of which produced an
// entry at or above ScaleThreshold is one Newview would have rescaled
// before evaluation read it; its likelihood is recomputed over the
// rescaled column and its scale count is one higher.
func (k *Kernel) finishInsertionGamma(site []float64, noScale []bool, oa, ob operand, pm [][ns * ns]float64, tabB []float64, catW float64, lo int) (lnL float64, rescaled int64) {
	w := len(site)
	noScale = noScale[:w]
	sa, sb, ss := scaleWindow(oa.scale, lo, w), scaleWindow(ob.scale, lo, w), scaleWindow(k.insSubScale, lo, w)
	weights := k.data.Weights[lo:][:w]
	for j, ok := range noScale {
		if !ok {
			site[j] = k.rescaledInsertionSiteGamma(oa, ob, pm, tabB, catW, lo+j)
		}
	}
	logSites(site)
	for j, l := range site {
		sc := sa[j] + sb[j] + ss[j]
		if !noScale[j] {
			sc++
			rescaled++
		}
		lnL += float64(weights[j]) * (l + float64(sc)*LogScaleStep)
	}
	return lnL, rescaled
}

// rescaledInsertionSiteGamma is site i of a Γ insertion score over the
// rescaled inserted column: each entry the workers' value times
// ScaleFactor, as finishNewviewGammaSoA would have stored it, the terms
// in the workers' order. Rare (one site in thousands on deep trees, none
// on shallow ones), so it loads its columns with strided reads.
func (k *Kernel) rescaledInsertionSiteGamma(oa, ob operand, pm [][ns * ns]float64, tabB []float64, catW float64, i int) float64 {
	freqs := &k.par.Freqs
	n := k.nPat
	site := 0.0
	for c := 0; c < gammaCats; c++ {
		pc := &pm[c]
		va := soaColGamma(oa.clv, n, i, c)
		var lb [ns]float64
		if ob.tips != nil {
			t := c*16*ns + int(ob.tips[i])*ns
			lb = [ns]float64(tabB[t : t+ns])
		} else {
			vb := soaColGamma(ob.clv, n, i, c)
			for x := 0; x < ns; x++ {
				lb[x] = pc[x*ns]*vb[0] + pc[x*ns+1]*vb[1] + pc[x*ns+2]*vb[2] + pc[x*ns+3]*vb[3]
			}
		}
		right := soaColGamma(k.insTab, n, i, c)
		for x := 0; x < ns; x++ {
			v := (pc[x*ns]*va[0] + pc[x*ns+1]*va[1] + pc[x*ns+2]*va[2] + pc[x*ns+3]*va[3]) * lb[x]
			v *= ScaleFactor
			site += freqs[x] * v * right[x] * catW
		}
	}
	return site
}

// prepareInsertionPSRSoABlock fills the block's range of the PSR
// insertion table: evaluatePSRSites' four `right` values per site, or for
// a tip subtree the table entries it reads in their place.
func (k *Kernel) prepareInsertionPSRSoABlock(oq operand, pm [][ns * ns]float64, tab []float64, lo, hi int) {
	n := k.nPat
	w := hi - lo
	cats := k.par.SiteCats[lo:][:w]
	d0, d1, d2, d3 := planes(k.insTab, 0, n, lo, w)
	if oq.tips != nil {
		tips := oq.tips[lo:][:w]
		for j := range cats {
			toff := (cats[j]*16 + int(tips[j])) * ns
			d0[j], d1[j], d2[j], d3[j] = tab[toff], tab[toff+1], tab[toff+2], tab[toff+3]
		}
		return
	}
	q0, q1, q2, q3 := psrPlanes(oq, n, lo, w)
	if laneMask != 0 {
		lanePSRRight(d0, q0, n, cats, &pm[0])
		return
	}
	for j := range cats {
		pc := &pm[cats[j]]
		vq0, vq1, vq2, vq3 := q0[j], q1[j], q2[j], q3[j]
		d0[j] = pc[0]*vq0 + pc[4]*vq1 + pc[8]*vq2 + pc[12]*vq3
		d1[j] = pc[1]*vq0 + pc[5]*vq1 + pc[9]*vq2 + pc[13]*vq3
		d2[j] = pc[2]*vq0 + pc[6]*vq1 + pc[10]*vq2 + pc[14]*vq3
		d3[j] = pc[3]*vq0 + pc[7]*vq1 + pc[11]*vq2 + pc[15]*vq3
	}
}

// scoreInsertionPSRSoABlock is the PSR worker for both far operand shapes
// (tabB the far tip's table, nil for an inner far operand).
func (k *Kernel) scoreInsertionPSRSoABlock(oa, ob operand, pm [][ns * ns]float64, tabB []float64, lo, hi int) (lnL float64, rescaled int64) {
	w := hi - lo
	var noScaleBuf [threadpool.BlockSize]bool
	var siteBuf [threadpool.BlockSize]float64
	noScale, site := noScaleBuf[:w], siteBuf[:w]
	k.scoreInsertionPSRSites(site, noScale, oa, ob, pm, tabB, lo)
	return k.finishInsertionPSR(site, noScale, oa, ob, lo)
}

// scoreInsertionPSRSites writes the per-site likelihoods of
// scoreInsertionPSRSoABlock's block into site and its scale decisions into
// noScale: newviewPSRSoABlock's column per site, rescaled in place when
// Newview would have rescaled it, then evaluatePSRSites' four terms against
// the insertion table.
func (k *Kernel) scoreInsertionPSRSites(site []float64, noScale []bool, oa, ob operand, pm [][ns * ns]float64, tabB []float64, lo int) {
	freqs := &k.par.Freqs
	n := k.nPat
	w := len(site)
	noScale = noScale[:w]
	cats := k.par.SiteCats[lo:][:w]
	a0, a1, a2, a3 := psrPlanes(oa, n, lo, w)
	b0, b1, b2, b3 := psrPlanes(ob, n, lo, w)
	tips := tipWindow(ob, lo, w)
	t0, t1, t2, t3 := planes(k.insTab, 0, n, lo, w)
	if laneMask != 0 {
		lanePSRScore(site, noScale, a0, b0, tips, tabB, ob.tips != nil, t0, n, cats, &pm[0], freqs)
		return
	}
	for j := range cats {
		c := cats[j]
		// One matrix set under newviewPSRSoABlock's two names.
		pca, pcb := &pm[c], &pm[c]
		var la, lb [ns]float64
		va0, va1, va2, va3 := a0[j], a1[j], a2[j], a3[j]
		la[0] = pca[0]*va0 + pca[4]*va1 + pca[8]*va2 + pca[12]*va3
		la[1] = pca[1]*va0 + pca[5]*va1 + pca[9]*va2 + pca[13]*va3
		la[2] = pca[2]*va0 + pca[6]*va1 + pca[10]*va2 + pca[14]*va3
		la[3] = pca[3]*va0 + pca[7]*va1 + pca[11]*va2 + pca[15]*va3
		if ob.tips != nil {
			toff := (c*16 + int(tips[j])) * ns
			lb[0], lb[1], lb[2], lb[3] = tabB[toff], tabB[toff+1], tabB[toff+2], tabB[toff+3]
		} else {
			vb0, vb1, vb2, vb3 := b0[j], b1[j], b2[j], b3[j]
			lb[0] = pcb[0]*vb0 + pcb[4]*vb1 + pcb[8]*vb2 + pcb[12]*vb3
			lb[1] = pcb[1]*vb0 + pcb[5]*vb1 + pcb[9]*vb2 + pcb[13]*vb3
			lb[2] = pcb[2]*vb0 + pcb[6]*vb1 + pcb[10]*vb2 + pcb[14]*vb3
			lb[3] = pcb[3]*vb0 + pcb[7]*vb1 + pcb[11]*vb2 + pcb[15]*vb3
		}
		v0 := la[0] * lb[0]
		v1 := la[1] * lb[1]
		v2 := la[2] * lb[2]
		v3 := la[3] * lb[3]
		ok := v0 >= ScaleThreshold || v0 != v0 ||
			v1 >= ScaleThreshold || v1 != v1 ||
			v2 >= ScaleThreshold || v2 != v2 ||
			v3 >= ScaleThreshold || v3 != v3
		if !ok {
			v0 *= ScaleFactor
			v1 *= ScaleFactor
			v2 *= ScaleFactor
			v3 *= ScaleFactor
		}
		noScale[j] = ok
		s := 0.0
		s += freqs[0] * v0 * t0[j]
		s += freqs[1] * v1 * t1[j]
		s += freqs[2] * v2 * t2[j]
		s += freqs[3] * v3 * t3[j]
		site[j] = s
	}
}

// finishInsertionPSR is the tail of the PSR insertion worker: the block's
// weighted log likelihood from its per-site likelihoods and the three
// operands' scale counts, one higher at a site the worker rescaled.
func (k *Kernel) finishInsertionPSR(site []float64, noScale []bool, oa, ob operand, lo int) (lnL float64, rescaled int64) {
	w := len(site)
	noScale = noScale[:w]
	sa, sb, ss := scaleWindow(oa.scale, lo, w), scaleWindow(ob.scale, lo, w), scaleWindow(k.insSubScale, lo, w)
	weights := k.data.Weights[lo:][:w]
	logSites(site)
	for j, l := range site {
		sc := sa[j] + sb[j] + ss[j]
		if !noScale[j] {
			sc++
			rescaled++
		}
		lnL += float64(weights[j]) * (l + float64(sc)*LogScaleStep)
	}
	return lnL, rescaled
}
