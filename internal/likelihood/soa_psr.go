package likelihood

import (
	"math"

	"repro/internal/msa"
	"repro/internal/threadpool"
)

// PSR block workers. PSR CLVs hold one 4-vector per site, stored as
// four state planes of nPat doubles. The per-site rate category selects
// a different P matrix each site, so unlike Γ there is no loop-invariant
// matrix row to hoist per plane; the workers instead walk sites once
// while reading/writing four stride-1 state streams in parallel, with
// the 4-state cell unrolled into straight-line code. Tip-specialized and
// inner-inner workers compute a site's value by the same expression; see
// soa_gamma.go for the expression-order rules.

// psrPlanes returns the block windows (soa_gamma.go) of a PSR operand's
// four state planes. A tip operand has none: it gets windows of zeros,
// which its worker never reads, so that every slice a site loop indexes
// has the loop's length whatever the operand shapes.
func psrPlanes(o operand, n, lo, w int) (p0, p1, p2, p3 []float64) {
	clv := o.clv
	if o.tips != nil {
		clv, n, lo = zeroPlane[:], 0, 0
	}
	return window(clv, lo, w), window(clv, n+lo, w), window(clv, 2*n+lo, w), window(clv, 3*n+lo, w)
}

// zeroPlane and zeroTips are the read-only stand-ins psrPlanes and
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

// newviewPSRSoABlock is the inner-inner worker of newviewPSR.
func (k *Kernel) newviewPSRSoABlock(dclv []float64, dscale []int32, oa, ob operand, pa, pb [][ns * ns]float64, lo, hi int) {
	n := k.nPat
	w := hi - lo
	cats := k.par.SiteCats[lo:][:w]
	e0, e1, e2, e3 := planes(dclv, 0, n, lo, w)
	a0, a1, a2, a3 := planes(oa.clv, 0, n, lo, w)
	b0, b1, b2, b3 := planes(ob.clv, 0, n, lo, w)
	sa, sb := scaleWindow(oa.scale, lo, w), scaleWindow(ob.scale, lo, w)
	ds := dscale[lo:][:w]
	for j := range cats {
		sc := sa[j] + sb[j]
		pca := &pa[cats[j]]
		pcb := &pb[cats[j]]
		va := [ns]float64{a0[j], a1[j], a2[j], a3[j]}
		vb := [ns]float64{b0[j], b1[j], b2[j], b3[j]}
		la0 := pca[0]*va[0] + pca[1]*va[1] + pca[2]*va[2] + pca[3]*va[3]
		lb0 := pcb[0]*vb[0] + pcb[1]*vb[1] + pcb[2]*vb[2] + pcb[3]*vb[3]
		v0 := la0 * lb0
		la1 := pca[4]*va[0] + pca[5]*va[1] + pca[6]*va[2] + pca[7]*va[3]
		lb1 := pcb[4]*vb[0] + pcb[5]*vb[1] + pcb[6]*vb[2] + pcb[7]*vb[3]
		v1 := la1 * lb1
		la2 := pca[8]*va[0] + pca[9]*va[1] + pca[10]*va[2] + pca[11]*va[3]
		lb2 := pcb[8]*vb[0] + pcb[9]*vb[1] + pcb[10]*vb[2] + pcb[11]*vb[3]
		v2 := la2 * lb2
		la3 := pca[12]*va[0] + pca[13]*va[1] + pca[14]*va[2] + pca[15]*va[3]
		lb3 := pcb[12]*vb[0] + pcb[13]*vb[1] + pcb[14]*vb[2] + pcb[15]*vb[3]
		v3 := la3 * lb3
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

// newviewPSRFastSoABlock is the tip-specialized worker of newviewPSR:
// tip sides gather their P·tipVec table entries, inner sides read the
// state streams.
func (k *Kernel) newviewPSRFastSoABlock(dclv []float64, dscale []int32, oa, ob operand, tabA, tabB []float64, pa, pb [][ns * ns]float64, lo, hi int) {
	n := k.nPat
	w := hi - lo
	cats := k.par.SiteCats[lo:][:w]
	e0, e1, e2, e3 := planes(dclv, 0, n, lo, w)
	a0, a1, a2, a3 := psrPlanes(oa, n, lo, w)
	b0, b1, b2, b3 := psrPlanes(ob, n, lo, w)
	tipsA, tipsB := tipWindow(oa, lo, w), tipWindow(ob, lo, w)
	sa, sb := scaleWindow(oa.scale, lo, w), scaleWindow(ob.scale, lo, w)
	ds := dscale[lo:][:w]
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
			la[0] = pca[0]*va0 + pca[1]*va1 + pca[2]*va2 + pca[3]*va3
			la[1] = pca[4]*va0 + pca[5]*va1 + pca[6]*va2 + pca[7]*va3
			la[2] = pca[8]*va0 + pca[9]*va1 + pca[10]*va2 + pca[11]*va3
			la[3] = pca[12]*va0 + pca[13]*va1 + pca[14]*va2 + pca[15]*va3
		}
		if ob.tips != nil {
			toff := (c*16 + int(tipsB[j])) * ns
			lb[0], lb[1], lb[2], lb[3] = tabB[toff], tabB[toff+1], tabB[toff+2], tabB[toff+3]
		} else {
			pcb := &pb[c]
			vb0, vb1, vb2, vb3 := b0[j], b1[j], b2[j], b3[j]
			lb[0] = pcb[0]*vb0 + pcb[1]*vb1 + pcb[2]*vb2 + pcb[3]*vb3
			lb[1] = pcb[4]*vb0 + pcb[5]*vb1 + pcb[6]*vb2 + pcb[7]*vb3
			lb[2] = pcb[8]*vb0 + pcb[9]*vb1 + pcb[10]*vb2 + pcb[11]*vb3
			lb[3] = pcb[12]*vb0 + pcb[13]*vb1 + pcb[14]*vb2 + pcb[15]*vb3
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

// evaluatePSRSoABlock is the Evaluate worker for an inner far operand
// (the near one may be a tip); the per-site sum accumulates its four
// terms in ascending-state order.
func (k *Kernel) evaluatePSRSoABlock(op, oq operand, pm [][ns * ns]float64, lo, hi int) float64 {
	freqs := &k.par.Freqs
	n := k.nPat
	w := hi - lo
	cats := k.par.SiteCats[lo:][:w]
	p0, p1, p2, p3 := psrPlanes(op, n, lo, w)
	q0, q1, q2, q3 := planes(oq.clv, 0, n, lo, w)
	tipsP := tipWindow(op, lo, w)
	sp, sq := scaleWindow(op.scale, lo, w), scaleWindow(oq.scale, lo, w)
	weights := k.data.Weights[lo:][:w]
	total := 0.0
	for j := range cats {
		pc := &pm[cats[j]]
		var vp [ns]float64
		if op.tips != nil {
			vp = k.tipVec[tipsP[j]]
		} else {
			vp = [ns]float64{p0[j], p1[j], p2[j], p3[j]}
		}
		vq := [ns]float64{q0[j], q1[j], q2[j], q3[j]}
		right0 := pc[0]*vq[0] + pc[1]*vq[1] + pc[2]*vq[2] + pc[3]*vq[3]
		right1 := pc[4]*vq[0] + pc[5]*vq[1] + pc[6]*vq[2] + pc[7]*vq[3]
		right2 := pc[8]*vq[0] + pc[9]*vq[1] + pc[10]*vq[2] + pc[11]*vq[3]
		right3 := pc[12]*vq[0] + pc[13]*vq[1] + pc[14]*vq[2] + pc[15]*vq[3]
		site := 0.0
		site += freqs[0] * vp[0] * right0
		site += freqs[1] * vp[1] * right1
		site += freqs[2] * vp[2] * right2
		site += freqs[3] * vp[3] * right3
		sc := sp[j] + sq[j]
		total += float64(weights[j]) * (math.Log(site) + float64(sc)*LogScaleStep)
	}
	return total
}

// evaluatePSRTipSoABlock is the q-tip Evaluate worker; a tip-tip edge
// reads no CLV and takes evaluatePSRTipBlock.
func (k *Kernel) evaluatePSRTipSoABlock(op, oq operand, tab []float64, lo, hi int) float64 {
	if op.tips != nil {
		return k.evaluatePSRTipBlock(op, oq, tab, lo, hi)
	}
	freqs := &k.par.Freqs
	n := k.nPat
	w := hi - lo
	cats := k.par.SiteCats[lo:][:w]
	p0, p1, p2, p3 := psrPlanes(op, n, lo, w)
	tips := oq.tips[lo:][:w]
	sp := scaleWindow(op.scale, lo, w)
	weights := k.data.Weights[lo:][:w]
	total := 0.0
	for j := range cats {
		vp := [ns]float64{p0[j], p1[j], p2[j], p3[j]}
		toff := (cats[j]*16 + int(tips[j])) * ns
		site := 0.0
		site += freqs[0] * vp[0] * tab[toff]
		site += freqs[1] * vp[1] * tab[toff+1]
		site += freqs[2] * vp[2] * tab[toff+2]
		site += freqs[3] * vp[3] * tab[toff+3]
		total += float64(weights[j]) * (math.Log(site) + float64(sp[j])*LogScaleStep)
	}
	return total
}

// preparePSRSoABlock is the inner-inner sum-table fill.
func (k *Kernel) preparePSRSoABlock(st []float64, op, oq operand, lo, hi int) {
	e := k.par.Eigen
	freqs := &k.par.Freqs
	n := k.nPat
	w := hi - lo
	p0, p1, p2, p3 := planes(op.clv, 0, n, lo, w)
	q0, q1, q2, q3 := planes(oq.clv, 0, n, lo, w)
	for j := range p0 {
		vp := [ns]float64{p0[j], p1[j], p2[j], p3[j]}
		vq := [ns]float64{q0[j], q1[j], q2[j], q3[j]}
		off := (lo + j) * ns
		for kk := 0; kk < ns; kk++ {
			ap := freqs[0]*vp[0]*e.U[0*ns+kk] + freqs[1]*vp[1]*e.U[1*ns+kk] +
				freqs[2]*vp[2]*e.U[2*ns+kk] + freqs[3]*vp[3]*e.U[3*ns+kk]
			bq := e.UInv[kk*ns]*vq[0] + e.UInv[kk*ns+1]*vq[1] +
				e.UInv[kk*ns+2]*vq[2] + e.UInv[kk*ns+3]*vq[3]
			st[off+kk] = ap * bq
		}
	}
}

// preparePSRFastSoABlock is the tip-specialized sum-table fill: a tip
// side reads its prep table (entries computed by preparePSRSoABlock's
// expression), an inner side evaluates that expression in place;
// the final ap·bq product order is unchanged, so the sum table bits
// match.
func (k *Kernel) preparePSRFastSoABlock(st []float64, op, oq operand, tabP, tabQ []float64, lo, hi int) {
	e := k.par.Eigen
	freqs := &k.par.Freqs
	n := k.nPat
	w := hi - lo
	p0, p1, p2, p3 := psrPlanes(op, n, lo, w)
	q0, q1, q2, q3 := psrPlanes(oq, n, lo, w)
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
