package likelihood

import (
	"repro/internal/telemetry"
	"repro/internal/threadpool"
)

// SPR insertion scoring (docs/PERFORMANCE.md §8).
//
// Inserting a pruned subtree into a candidate edge creates one vertex:
// v = (P_half·near) ∘ (P_half·far), the Newview combine of the edge's two
// directional vectors across half its length each. The candidate's score
// is the evaluation of v against the subtree's vector across the
// subtree's branch. Done with the general kernels that is the near
// vector's pre-order Newview, a whole CLV for v written (plus its scaling
// pass) and read back once, and P(subT)·sub recomputed per candidate
// although neither factor changes within a prune point. Here a candidate
// is one block operation:
//
//   - PrepareInsertion fills, once per prune point, a CLV-shaped table
//     with P(subT)·sub — the `right` factor of the evaluation workers;
//   - ScoreInsertion takes the candidate's pre-order step. Per site group
//     it forms the near vector with the Newview workers' expression and
//     scaling and stores it to the step's slot, then forms v, takes the
//     scaling decision Newview would have taken, and accumulates
//     π_x · v_x · table_x · catW in evaluation's ascending (category,
//     state) order.
//
// Every site value is produced by the Newview workers' expression and
// every term by the evaluation workers', in their order, so a score has
// the bits of Newview(step), then Newview into a free outer slot followed
// by Evaluate (TestInsertionScoreBitIdentical). π is deliberately not
// folded into the table: evaluation associates ((π·v)·right)·catW, and a
// table of π·right would associate (v·(π·right))·catW — a different last
// bit. Under Γ a candidate runs in one lane routine per block (lanes.go:
// laneCandidate, laneCandidate8); under PSR its worker runs the Newview
// worker into the slot and then the score worker, both in state lanes.
// The logs run in lanes too, and the sums over sites stay in Go.

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
	ra := k.stage(opPrepareInsertion)
	ra.ob, ra.pa = oq, pm
	if oq.tips != nil {
		ra.tabB = k.tipTable(pm, oq)
	}
	k.insSubScale = oq.scale
	k.counts[telemetry.RankColumns] += k.cols()
}

// ScoreInsertion stages the candidate whose pre-order step is s: the
// weighted log likelihood of the tree with the prepared subtree inserted
// into the edge between s.Dst — the vector s computes, the candidate's
// near end — and far, either half of which gets length half. The value is
// the finished program's next result (LnL) and has the bits of Newview(s),
// Newview of (s.Dst, far) across (half, half) into a free outer slot and
// Evaluate of that slot against the subtree, without the free slot. far
// may be a tip, a CLV or an outer vector. One operation per candidate: per
// site group the near vector is formed, scaled, stored to s.Dst — Newview's
// bits and scale counts, which later candidates read — and scored while it
// is in registers or L1.
func (k *Kernel) ScoreInsertion(s Step, far Ref, half float64) {
	ra := k.stageReducing(opScoreInsertion)
	k.stageStep(ra, s)
	ra.far = k.operand(far)
	// Newview builds P(half) once per operand; one set serves both, being
	// the same doubles.
	ra.ph = k.probMatricesFor(half)
	if ra.far.tips != nil {
		ra.tabF = k.tipTable(ra.ph, ra.far)
	}
	k.countSites()
	ra.catW = k.par.CatWeight()
	k.counts[telemetry.RankColumns] += 2 * k.cols()
}

// prepareInsertionGammaSoABlock fills the block's range of the Γ
// insertion table: per (category, state) plane the `right` expression of
// evaluateGammaSites, or for a tip subtree the table entry it reads in
// its place.
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

// scoreInsertionGammaSoABlock is the Γ candidate worker, every operand
// shape of the step and the far side (tabF the far tip's table, nil for
// an inner far operand): newviewGammaSoABlock's near vector, then per site
// and category its value, scaling predicate and evaluateGammaSites'
// accumulation against the insertion table.
func (k *Kernel) scoreInsertionGammaSoABlock(ra *runArgs, lo, hi int) (lnL float64, rescaled int64) {
	w := hi - lo
	var noScaleBuf [threadpool.BlockSize]bool
	var siteBuf [threadpool.BlockSize]float64
	noScale, site := noScaleBuf[:w], siteBuf[:w]
	k.scoreCandidateGammaSites(site, noScale, ra, lo)
	k.finishInsertionGamma(site, noScale, ra, lo)
	return k.sumInsertionLnl(site, noScale, ra.dscale, ra.far.scale, lo)
}

// scoreCandidateGammaSites accumulates the per-site likelihoods of
// scoreInsertionGammaSoABlock's block into site and the inserted vertex's
// scale decisions into noScale (zeroed), the near vector stored to the
// step's slot. The first gammaLaneSites(w) sites run in one lane call
// (candidateLanes). The rest is the reference the lanes are held to:
// Newview into the step's slot, then the score over it.
func (k *Kernel) scoreCandidateGammaSites(site []float64, noScale []bool, ra *runArgs, lo int) {
	w := len(site)
	nl := gammaLaneSites(w)
	candidateLanes(site, noScale, ra, &k.par.Freqs, k.insTab, k.nPat, lo, nl)
	if nl < w {
		k.newviewGammaSoABlock(ra.dclv, ra.dscale, ra.oa, ra.ob, ra.tabA, ra.tabB, ra.pa, ra.pb, lo+nl, lo+w)
		near := operand{clv: ra.dclv, scale: ra.dscale}
		k.scoreInsertionGammaSites(site, noScale, near, ra.far, ra.ph, ra.tabF, ra.catW, lo)
	}
}

// scoreInsertionGammaSites accumulates the per-site likelihoods of the
// len(site) sites from lo into site and their scale decisions into
// noScale, the near vector oa a CLV: the Go loop of the candidate worker,
// from site gammaLaneSites(w) on — the sites the lanes leave.
func (k *Kernel) scoreInsertionGammaSites(site []float64, noScale []bool, oa, ob operand, pm [][ns * ns]float64, tabB []float64, catW float64, lo int) {
	freqs := &k.par.Freqs
	f0, f1, f2, f3 := freqs[0], freqs[1], freqs[2], freqs[3]
	n := k.nPat
	w := len(site)
	noScale = noScale[:w]
	nl := gammaLaneSites(w)
	tipsB := tipWindow(ob, lo, w)
	for c := 0; c < gammaCats; c++ {
		// One matrix set under Newview's two names: the expressions below
		// are newviewGammaSoABlock's, letter for letter.
		pca, pcb := &pm[c], &pm[c]
		a0, a1, a2, a3 := planes(oa.clv, c*ns, n, lo, w)
		b0, b1, b2, b3 := operandPlanes(ob, n, c*ns*n+lo, w)
		t0, t1, t2, t3 := planes(k.insTab, c*ns, n, lo, w)
		tbase := c * 16 * ns
		for j := nl; j < len(site); j++ {
			var la, lb [ns]float64
			av0, av1, av2, av3 := a0[j], a1[j], a2[j], a3[j]
			la[0] = pca[0]*av0 + pca[1]*av1 + pca[2]*av2 + pca[3]*av3
			la[1] = pca[4]*av0 + pca[5]*av1 + pca[6]*av2 + pca[7]*av3
			la[2] = pca[8]*av0 + pca[9]*av1 + pca[10]*av2 + pca[11]*av3
			la[3] = pca[12]*av0 + pca[13]*av1 + pca[14]*av2 + pca[15]*av3
			if ob.tips != nil {
				t := tbase + int(tipsB[j])*ns
				lb = [ns]float64(tabB[t : t+ns])
			} else {
				bv0, bv1, bv2, bv3 := b0[j], b1[j], b2[j], b3[j]
				lb[0] = pcb[0]*bv0 + pcb[1]*bv1 + pcb[2]*bv2 + pcb[3]*bv3
				lb[1] = pcb[4]*bv0 + pcb[5]*bv1 + pcb[6]*bv2 + pcb[7]*bv3
				lb[2] = pcb[8]*bv0 + pcb[9]*bv1 + pcb[10]*bv2 + pcb[11]*bv3
				lb[3] = pcb[12]*bv0 + pcb[13]*bv1 + pcb[14]*bv2 + pcb[15]*bv3
			}
			v0, v1, v2, v3 := la[0]*lb[0], la[1]*lb[1], la[2]*lb[2], la[3]*lb[3]
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

// finishInsertionGamma recomputes, over the rescaled column, the sites
// of a Γ insertion score that Newview would have rescaled before
// evaluation read them: those no category of which produced an entry at
// or above ScaleThreshold. sumInsertionLnl adds their extra scaling
// event.
func (k *Kernel) finishInsertionGamma(site []float64, noScale []bool, ra *runArgs, lo int) {
	noScale = noScale[:len(site)]
	for j, ok := range noScale {
		if !ok {
			site[j] = k.rescaledInsertionSiteGamma(ra, lo+j)
		}
	}
}

// rescaledInsertionSiteGamma is site i of a Γ insertion score over the
// rescaled inserted column: each entry the workers' value times
// ScaleFactor, as finishNewviewGammaSoA would have stored it, the terms
// in the workers' order, the near column read back from the step's slot.
// Rare (one site in thousands on deep trees, none on shallow ones), so it
// loads its columns with strided reads.
func (k *Kernel) rescaledInsertionSiteGamma(ra *runArgs, i int) float64 {
	freqs := &k.par.Freqs
	n := k.nPat
	site := 0.0
	for c := 0; c < gammaCats; c++ {
		pc := &ra.ph[c]
		va := soaColGamma(ra.dclv, n, i, c)
		var lb [ns]float64
		if ra.far.tips != nil {
			t := c*16*ns + int(ra.far.tips[i])*ns
			lb = [ns]float64(ra.tabF[t : t+ns])
		} else {
			vb := soaColGamma(ra.far.clv, n, i, c)
			for x := 0; x < ns; x++ {
				lb[x] = pc[x*ns]*vb[0] + pc[x*ns+1]*vb[1] + pc[x*ns+2]*vb[2] + pc[x*ns+3]*vb[3]
			}
		}
		right := soaColGamma(k.insTab, n, i, c)
		for x := 0; x < ns; x++ {
			v := (pc[x*ns]*va[0] + pc[x*ns+1]*va[1] + pc[x*ns+2]*va[2] + pc[x*ns+3]*va[3]) * lb[x]
			v *= ScaleFactor
			site += freqs[x] * v * right[x] * ra.catW
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
	q0, q1, q2, q3 := operandPlanes(oq, n, lo, w)
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

// scoreInsertionPSRSoABlock is the score of the PSR candidate worker, both
// far operand shapes (tabB the far tip's table, nil for an inner far
// operand), over the near vector oa its Newview stored.
func (k *Kernel) scoreInsertionPSRSoABlock(oa, ob operand, pm [][ns * ns]float64, tabB []float64, lo, hi int) (lnL float64, rescaled int64) {
	w := hi - lo
	var noScaleBuf [threadpool.BlockSize]bool
	var siteBuf [threadpool.BlockSize]float64
	noScale, site := noScaleBuf[:w], siteBuf[:w]
	k.scoreInsertionPSRSites(site, noScale, oa, ob, pm, tabB, lo)
	return k.sumInsertionLnl(site, noScale, oa.scale, ob.scale, lo)
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
	a0, a1, a2, a3 := operandPlanes(oa, n, lo, w)
	b0, b1, b2, b3 := operandPlanes(ob, n, lo, w)
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

// sumInsertionLnl is the tail of the insertion-score workers of both
// models: the block's weighted log likelihood from its per-site
// likelihoods (replaced by their logs) and the scale counts of the near
// vector (sn), the far operand (sf) and the subtree, summed in site order,
// one scaling event more at a site the worker rescaled.
func (k *Kernel) sumInsertionLnl(site []float64, noScale []bool, sn, sf []int32, lo int) (lnL float64, rescaled int64) {
	w := len(site)
	noScale = noScale[:w]
	sn, sf, ss := scaleWindow(sn, lo, w), scaleWindow(sf, lo, w), scaleWindow(k.insSubScale, lo, w)
	weights := k.data.Weights[lo:][:w]
	logSites(site)
	for j, l := range site {
		sc := sn[j] + sf[j] + ss[j]
		if !noScale[j] {
			sc++
			rescaled++
		}
		lnL += float64(weights[j]) * (l + float64(sc)*LogScaleStep)
	}
	return lnL, rescaled
}
