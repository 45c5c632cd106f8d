package likelihood

import (
	"math"

	"repro/internal/msa"
	"repro/internal/threadpool"
)

// PSR block workers. PSR CLVs hold one 4-vector per site — one rate
// category per site, the 4× memory saving over Γ the paper highlights —
// stored as four state planes of nPat doubles. The per-site rate
// category selects a different P matrix each site, so unlike Γ there is
// no loop-invariant matrix row to hoist per plane; the workers instead walk sites once
// while reading/writing four stride-1 state streams in parallel, with
// the 4-state cell unrolled into straight-line code. One worker per
// operation serves every operand shape, a tip side's table entry having
// the bits of the inner side's expression; see soa_gamma.go for the
// expression-order rules.
//
// PSR matrices are stored transposed (Kernel.probMatrices): pc[y·4+x] is
// P[x][y], so row x of P·v reads pc[x], pc[4+x], pc[8+x], pc[12+x] — the
// same doubles in the same order as the row-major expression.
//
// Vector lanes (lanes.go): on a CPU with AVX2 every site of a block runs
// in state lanes — lane x holds state x of one site, so a site's own
// matrix is four vector loads — and the Go loop below each lane call is
// the reference and the path of every other CPU. The evaluation and
// insertion-score workers fill per-site likelihoods; their reductions over
// sites stay in Go (sumSiteLnl, sumInsertionLnl).

// operandPlanes returns the block windows (soa_gamma.go) of four state
// planes of an operand, from site lo: a PSR operand's only four, a Γ
// operand's category c at lo + c·4·n. A tip operand has none: it gets
// windows of zeros, which its worker never reads, so that every slice a
// site loop indexes has the loop's length whatever the operand shapes.
func operandPlanes(o operand, n, lo, w int) (p0, p1, p2, p3 []float64) {
	clv := o.clv
	if o.tips != nil {
		clv, n, lo = zeroPlane[:], 0, 0
	}
	return window(clv, lo, w), window(clv, n+lo, w), window(clv, 2*n+lo, w), window(clv, 3*n+lo, w)
}

// zeroPlane and zeroTips are the read-only stand-ins operandPlanes and
// tipWindow hand out for the operand shape a worker does not read.
var (
	zeroPlane [threadpool.BlockSize]float64
	zeroTips  [threadpool.BlockSize]msa.State
)

// tipWindow returns the block window of a tip operand's states (zeros
// for an inner operand, never read).
func tipWindow(o operand, lo, w int) []msa.State {
	tips := o.tips
	if tips == nil {
		tips, lo = zeroTips[:], 0
	}
	return tips[lo:][:w]
}

// newviewPSRSoABlock is the Newview worker under PSR, every operand shape: a
// tip side gathers its P·tipVec table entries (tabA/tabB), an inner side
// reads its state streams.
func (k *Kernel) newviewPSRSoABlock(dclv []float64, dscale []int32, oa, ob operand, tabA, tabB []float64, pa, pb [][ns * ns]float64, lo, hi int) {
	n := k.nPat
	w := hi - lo
	cats := k.par.SiteCats[lo:][:w]
	e0, e1, e2, e3 := planes(dclv, 0, n, lo, w)
	a0, a1, a2, a3 := operandPlanes(oa, n, lo, w)
	b0, b1, b2, b3 := operandPlanes(ob, n, lo, w)
	tipsA, tipsB := tipWindow(oa, lo, w), tipWindow(ob, lo, w)
	sa, sb := scaleWindow(oa.scale, lo, w), scaleWindow(ob.scale, lo, w)
	ds := dscale[lo:][:w]
	if laneMask != 0 {
		lanePSRNewview(e0, a0, tipsA, tabA, oa.tips != nil, b0, tipsB, tabB, ob.tips != nil, n, cats, &pa[0], &pb[0], sa, sb, ds)
		return
	}
	for j := range cats {
		sc := sa[j] + sb[j]
		c := cats[j]
		var la, lb [ns]float64
		if oa.tips != nil {
			toff := (c*16 + int(tipsA[j])) * ns
			la[0], la[1], la[2], la[3] = tabA[toff], tabA[toff+1], tabA[toff+2], tabA[toff+3]
		} else {
			pca := &pa[c]
			va0, va1, va2, va3 := a0[j], a1[j], a2[j], a3[j]
			la[0] = pca[0]*va0 + pca[4]*va1 + pca[8]*va2 + pca[12]*va3
			la[1] = pca[1]*va0 + pca[5]*va1 + pca[9]*va2 + pca[13]*va3
			la[2] = pca[2]*va0 + pca[6]*va1 + pca[10]*va2 + pca[14]*va3
			la[3] = pca[3]*va0 + pca[7]*va1 + pca[11]*va2 + pca[15]*va3
		}
		if ob.tips != nil {
			toff := (c*16 + int(tipsB[j])) * ns
			lb[0], lb[1], lb[2], lb[3] = tabB[toff], tabB[toff+1], tabB[toff+2], tabB[toff+3]
		} else {
			pcb := &pb[c]
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
		noScale := v0 >= ScaleThreshold || v0 != v0 ||
			v1 >= ScaleThreshold || v1 != v1 ||
			v2 >= ScaleThreshold || v2 != v2 ||
			v3 >= ScaleThreshold || v3 != v3
		if !noScale {
			v0 *= ScaleFactor
			v1 *= ScaleFactor
			v2 *= ScaleFactor
			v3 *= ScaleFactor
			sc++
		}
		e0[j], e1[j], e2[j], e3[j] = v0, v1, v2, v3
		ds[j] = sc
	}
}

// evaluatePSRSoABlock is the Evaluate worker, every operand shape: the near
// operand p is a CLV or a tip's 0/1 vector, the far one's P product is
// computed from its CLV or, for a tip, read from tab.
func (k *Kernel) evaluatePSRSoABlock(op, oq operand, pm [][ns * ns]float64, tab []float64, lo, hi int) float64 {
	w := hi - lo
	var siteBuf [threadpool.BlockSize]float64
	site := siteBuf[:w]
	k.evaluatePSRSites(site, op, oq, pm, tab, lo)
	return k.sumSiteLnl(site, scaleWindow(op.scale, lo, w), scaleWindow(oq.scale, lo, w), lo)
}

// evaluatePSRSites writes the per-site likelihoods of evaluatePSRSoABlock's
// block into site: the four terms in ascending-state order, summed from
// 0.0.
func (k *Kernel) evaluatePSRSites(site []float64, op, oq operand, pm [][ns * ns]float64, tab []float64, lo int) {
	freqs := &k.par.Freqs
	n := k.nPat
	w := len(site)
	cats := k.par.SiteCats[lo:][:w]
	p0, p1, p2, p3 := operandPlanes(op, n, lo, w)
	q0, q1, q2, q3 := operandPlanes(oq, n, lo, w)
	tipsP, tipsQ := tipWindow(op, lo, w), tipWindow(oq, lo, w)
	if laneMask != 0 {
		lanePSREvaluate(site, p0, tipsP, &k.tipVec, op.tips != nil, q0, tipsQ, tab, oq.tips != nil, n, cats, &pm[0], freqs)
		return
	}
	for j := range cats {
		c := cats[j]
		var vp, right [ns]float64
		if op.tips != nil {
			vp = k.tipVec[tipsP[j]]
		} else {
			vp = [ns]float64{p0[j], p1[j], p2[j], p3[j]}
		}
		if oq.tips != nil {
			toff := (c*16 + int(tipsQ[j])) * ns
			right[0], right[1], right[2], right[3] = tab[toff], tab[toff+1], tab[toff+2], tab[toff+3]
		} else {
			pc := &pm[c]
			vq0, vq1, vq2, vq3 := q0[j], q1[j], q2[j], q3[j]
			right[0] = pc[0]*vq0 + pc[4]*vq1 + pc[8]*vq2 + pc[12]*vq3
			right[1] = pc[1]*vq0 + pc[5]*vq1 + pc[9]*vq2 + pc[13]*vq3
			right[2] = pc[2]*vq0 + pc[6]*vq1 + pc[10]*vq2 + pc[14]*vq3
			right[3] = pc[3]*vq0 + pc[7]*vq1 + pc[11]*vq2 + pc[15]*vq3
		}
		s := 0.0
		s += freqs[0] * vp[0] * right[0]
		s += freqs[1] * vp[1] * right[1]
		s += freqs[2] * vp[2] * right[2]
		s += freqs[3] * vp[3] * right[3]
		site[j] = s
	}
}

// preparePSRSoABlock is the sum-table fill, every operand shape: a tip
// side reads its prep table (fastpath.go, entries computed by the inner
// side's expression), an inner side evaluates that expression in place,
// and the table entry is ap·bq.
func (k *Kernel) preparePSRSoABlock(st []float64, op, oq operand, tabP, tabQ []float64, lo, hi int) {
	if laneMask != 0 {
		k.preparePSRLanes(st, op, oq, tabP, tabQ, lo, hi)
		return
	}
	e := k.par.Eigen
	freqs := &k.par.Freqs
	n := k.nPat
	w := hi - lo
	p0, p1, p2, p3 := operandPlanes(op, n, lo, w)
	q0, q1, q2, q3 := operandPlanes(oq, n, lo, w)
	tipsP, tipsQ := tipWindow(op, lo, w), tipWindow(oq, lo, w)
	for j := range p0 {
		off := (lo + j) * ns
		var ap, bq [ns]float64
		if op.tips != nil {
			poff := int(tipsP[j]) * ns
			ap[0], ap[1], ap[2], ap[3] = tabP[poff], tabP[poff+1], tabP[poff+2], tabP[poff+3]
		} else {
			vp0, vp1, vp2, vp3 := p0[j], p1[j], p2[j], p3[j]
			for kk := 0; kk < ns; kk++ {
				ap[kk] = freqs[0]*vp0*e.U[0*ns+kk] + freqs[1]*vp1*e.U[1*ns+kk] +
					freqs[2]*vp2*e.U[2*ns+kk] + freqs[3]*vp3*e.U[3*ns+kk]
			}
		}
		if oq.tips != nil {
			qoff := int(tipsQ[j]) * ns
			bq[0], bq[1], bq[2], bq[3] = tabQ[qoff], tabQ[qoff+1], tabQ[qoff+2], tabQ[qoff+3]
		} else {
			vq0, vq1, vq2, vq3 := q0[j], q1[j], q2[j], q3[j]
			for kk := 0; kk < ns; kk++ {
				bq[kk] = e.UInv[kk*ns]*vq0 + e.UInv[kk*ns+1]*vq1 +
					e.UInv[kk*ns+2]*vq2 + e.UInv[kk*ns+3]*vq3
			}
		}
		for kk := 0; kk < ns; kk++ {
			st[off+kk] = ap[kk] * bq[kk]
		}
	}
}

// preparePSRLanes is the sum-table fill in eigen lanes (lanePSRPrepare):
// a tip side reads its prep table, an inner side evaluates the fill's
// expression, the q side's over the transpose of U⁻¹ (model.Eigen.UInvT).
func (k *Kernel) preparePSRLanes(st []float64, op, oq operand, tabP, tabQ []float64, lo, hi int) {
	e := k.par.Eigen
	lanePSRPrepare(st, op.clv, op.tips, tabP, op.tips != nil, oq.clv, oq.tips, tabQ, oq.tips != nil,
		k.nPat, lo, hi-lo, &e.U, &e.UInvT, &k.par.Freqs)
}

// derivativesPSRBlock is the Derivatives worker under PSR. The
// four-state loop is unrolled with constant indices into capped slices
// (no bounds checks in the hot loop); the sums associate left-to-right
// from zero — the identical expression the rolled loop evaluated, so
// the unroll is bit-invisible. On a CPU with AVX2 the per-site terms of
// the first (hi−lo) &^ 3 sites come from lanePSRDerivatives, 64 sites a
// call, each with this loop's expression, and foldTerms sums them in site
// order over the sites it marks valid; the loop does the tail.
func (k *Kernel) derivativesPSRBlock(sumTab []float64, ex, lam [][ns]float64, lo, hi int) (d1, d2 float64) {
	cats := k.par.SiteCats
	i := lo
	var terms [laneChunk / 4]siteTerms
	for laneMask != 0 && hi-i >= 4 {
		nl := min(hi-i, laneChunk) &^ 3
		lanePSRDerivatives(terms[:], sumTab, cats, k.data.Weights, i, nl, ex, lam)
		d1, d2 = foldTerms(terms[:], nl, d1, d2)
		i += nl
	}
	for ; i < hi; i++ {
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
