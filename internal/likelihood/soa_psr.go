package likelihood

import (
	"math"
)

// PSR block workers. PSR CLVs hold one 4-vector per site, stored as
// four state planes of nPat doubles. The per-site rate category selects
// a different P matrix each site, so unlike Γ there is no loop-invariant
// matrix row to hoist per plane; the workers instead walk sites once
// while reading/writing four stride-1 state streams in parallel, with
// the 4-state cell unrolled into straight-line code. Tip-specialized and
// generic workers compute a site's value by the same expression; see
// soa_gamma.go for the expression-order rules.

// newviewPSRSoABlock is the generic worker of newviewPSR.
func (k *Kernel) newviewPSRSoABlock(dclv []float64, dscale []int32, oa, ob operand, pa, pb [][ns * ns]float64, lo, hi int) {
	cats := k.par.SiteCats
	n := k.nPat
	e0, e1, e2, e3 := dclv, dclv[n:], dclv[2*n:], dclv[3*n:]
	var a0, a1, a2, a3, b0, b1, b2, b3 []float64
	if oa.tips == nil {
		a0, a1, a2, a3 = oa.clv, oa.clv[n:], oa.clv[2*n:], oa.clv[3*n:]
	}
	if ob.tips == nil {
		b0, b1, b2, b3 = ob.clv, ob.clv[n:], ob.clv[2*n:], ob.clv[3*n:]
	}
	for i := lo; i < hi; i++ {
		var sc int32
		if oa.scale != nil {
			sc += oa.scale[i]
		}
		if ob.scale != nil {
			sc += ob.scale[i]
		}
		pca := &pa[cats[i]]
		pcb := &pb[cats[i]]
		var va, vb [ns]float64
		if oa.tips != nil {
			va = k.tipVec[oa.tips[i]]
		} else {
			va = [ns]float64{a0[i], a1[i], a2[i], a3[i]}
		}
		if ob.tips != nil {
			vb = k.tipVec[ob.tips[i]]
		} else {
			vb = [ns]float64{b0[i], b1[i], b2[i], b3[i]}
		}
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
		e0[i], e1[i], e2[i], e3[i] = v0, v1, v2, v3
		dscale[i] = sc
	}
}

// newviewPSRFastSoABlock is the tip-specialized worker of newviewPSR:
// tip sides gather their P·tipVec table entries, inner sides read the
// state streams.
func (k *Kernel) newviewPSRFastSoABlock(dclv []float64, dscale []int32, oa, ob operand, tabA, tabB []float64, pa, pb [][ns * ns]float64, lo, hi int) {
	cats := k.par.SiteCats
	n := k.nPat
	e0, e1, e2, e3 := dclv, dclv[n:], dclv[2*n:], dclv[3*n:]
	var a0, a1, a2, a3, b0, b1, b2, b3 []float64
	if oa.tips == nil {
		a0, a1, a2, a3 = oa.clv, oa.clv[n:], oa.clv[2*n:], oa.clv[3*n:]
	}
	if ob.tips == nil {
		b0, b1, b2, b3 = ob.clv, ob.clv[n:], ob.clv[2*n:], ob.clv[3*n:]
	}
	for i := lo; i < hi; i++ {
		var sc int32
		if oa.scale != nil {
			sc += oa.scale[i]
		}
		if ob.scale != nil {
			sc += ob.scale[i]
		}
		c := cats[i]
		var la, lb [ns]float64
		if oa.tips != nil {
			toff := (c*16 + int(oa.tips[i])) * ns
			la[0], la[1], la[2], la[3] = tabA[toff], tabA[toff+1], tabA[toff+2], tabA[toff+3]
		} else {
			pca := &pa[c]
			va0, va1, va2, va3 := a0[i], a1[i], a2[i], a3[i]
			la[0] = pca[0]*va0 + pca[1]*va1 + pca[2]*va2 + pca[3]*va3
			la[1] = pca[4]*va0 + pca[5]*va1 + pca[6]*va2 + pca[7]*va3
			la[2] = pca[8]*va0 + pca[9]*va1 + pca[10]*va2 + pca[11]*va3
			la[3] = pca[12]*va0 + pca[13]*va1 + pca[14]*va2 + pca[15]*va3
		}
		if ob.tips != nil {
			toff := (c*16 + int(ob.tips[i])) * ns
			lb[0], lb[1], lb[2], lb[3] = tabB[toff], tabB[toff+1], tabB[toff+2], tabB[toff+3]
		} else {
			pcb := &pb[c]
			vb0, vb1, vb2, vb3 := b0[i], b1[i], b2[i], b3[i]
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
		e0[i], e1[i], e2[i], e3[i] = v0, v1, v2, v3
		dscale[i] = sc
	}
}

// evaluatePSRSoABlock is the generic Evaluate worker; the per-site sum
// accumulates its four terms in ascending-state order.
func (k *Kernel) evaluatePSRSoABlock(op, oq operand, pm [][ns * ns]float64, lo, hi int) float64 {
	cats := k.par.SiteCats
	freqs := &k.par.Freqs
	n := k.nPat
	var p0, p1, p2, p3, q0, q1, q2, q3 []float64
	if op.tips == nil {
		p0, p1, p2, p3 = op.clv, op.clv[n:], op.clv[2*n:], op.clv[3*n:]
	}
	if oq.tips == nil {
		q0, q1, q2, q3 = oq.clv, oq.clv[n:], oq.clv[2*n:], oq.clv[3*n:]
	}
	total := 0.0
	for i := lo; i < hi; i++ {
		pc := &pm[cats[i]]
		var vp, vq [ns]float64
		if op.tips != nil {
			vp = k.tipVec[op.tips[i]]
		} else {
			vp = [ns]float64{p0[i], p1[i], p2[i], p3[i]}
		}
		if oq.tips != nil {
			vq = k.tipVec[oq.tips[i]]
		} else {
			vq = [ns]float64{q0[i], q1[i], q2[i], q3[i]}
		}
		right0 := pc[0]*vq[0] + pc[1]*vq[1] + pc[2]*vq[2] + pc[3]*vq[3]
		right1 := pc[4]*vq[0] + pc[5]*vq[1] + pc[6]*vq[2] + pc[7]*vq[3]
		right2 := pc[8]*vq[0] + pc[9]*vq[1] + pc[10]*vq[2] + pc[11]*vq[3]
		right3 := pc[12]*vq[0] + pc[13]*vq[1] + pc[14]*vq[2] + pc[15]*vq[3]
		site := 0.0
		site += freqs[0] * vp[0] * right0
		site += freqs[1] * vp[1] * right1
		site += freqs[2] * vp[2] * right2
		site += freqs[3] * vp[3] * right3
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

// evaluatePSRTipSoABlock is the q-tip Evaluate worker; a tip-tip edge
// reads no CLV and takes evaluatePSRTipBlock.
func (k *Kernel) evaluatePSRTipSoABlock(op, oq operand, tab []float64, lo, hi int) float64 {
	if op.tips != nil {
		return k.evaluatePSRTipBlock(op, oq, tab, lo, hi)
	}
	cats := k.par.SiteCats
	freqs := &k.par.Freqs
	n := k.nPat
	p0, p1, p2, p3 := op.clv, op.clv[n:], op.clv[2*n:], op.clv[3*n:]
	total := 0.0
	for i := lo; i < hi; i++ {
		vp := [ns]float64{p0[i], p1[i], p2[i], p3[i]}
		toff := (cats[i]*16 + int(oq.tips[i])) * ns
		site := 0.0
		site += freqs[0] * vp[0] * tab[toff]
		site += freqs[1] * vp[1] * tab[toff+1]
		site += freqs[2] * vp[2] * tab[toff+2]
		site += freqs[3] * vp[3] * tab[toff+3]
		var sc int32
		if op.scale != nil {
			sc += op.scale[i]
		}
		total += float64(k.data.Weights[i]) * (math.Log(site) + float64(sc)*LogScaleStep)
	}
	return total
}

// preparePSRSoABlock is the generic sum-table fill (tip operands occur
// here only with the fast path off).
func (k *Kernel) preparePSRSoABlock(op, oq operand, lo, hi int) {
	e := k.par.Eigen
	freqs := &k.par.Freqs
	n := k.nPat
	var p0, p1, p2, p3, q0, q1, q2, q3 []float64
	if op.tips == nil {
		p0, p1, p2, p3 = op.clv, op.clv[n:], op.clv[2*n:], op.clv[3*n:]
	}
	if oq.tips == nil {
		q0, q1, q2, q3 = oq.clv, oq.clv[n:], oq.clv[2*n:], oq.clv[3*n:]
	}
	for i := lo; i < hi; i++ {
		var vp, vq [ns]float64
		if op.tips != nil {
			vp = k.tipVec[op.tips[i]]
		} else {
			vp = [ns]float64{p0[i], p1[i], p2[i], p3[i]}
		}
		if oq.tips != nil {
			vq = k.tipVec[oq.tips[i]]
		} else {
			vq = [ns]float64{q0[i], q1[i], q2[i], q3[i]}
		}
		off := i * ns
		for kk := 0; kk < ns; kk++ {
			ap := freqs[0]*vp[0]*e.U[0*ns+kk] + freqs[1]*vp[1]*e.U[1*ns+kk] +
				freqs[2]*vp[2]*e.U[2*ns+kk] + freqs[3]*vp[3]*e.U[3*ns+kk]
			bq := e.UInv[kk*ns]*vq[0] + e.UInv[kk*ns+1]*vq[1] +
				e.UInv[kk*ns+2]*vq[2] + e.UInv[kk*ns+3]*vq[3]
			k.sumTab[off+kk] = ap * bq
		}
	}
}

// preparePSRFastSoABlock is the tip-specialized sum-table fill: a tip
// side reads its prep table (entries computed by the generic
// expression), an inner side evaluates the generic expression in place;
// the final ap·bq product order is unchanged, so the sum table bits
// match.
func (k *Kernel) preparePSRFastSoABlock(op, oq operand, tabP, tabQ []float64, lo, hi int) {
	e := k.par.Eigen
	freqs := &k.par.Freqs
	n := k.nPat
	var p0, p1, p2, p3, q0, q1, q2, q3 []float64
	if op.tips == nil {
		p0, p1, p2, p3 = op.clv, op.clv[n:], op.clv[2*n:], op.clv[3*n:]
	}
	if oq.tips == nil {
		q0, q1, q2, q3 = oq.clv, oq.clv[n:], oq.clv[2*n:], oq.clv[3*n:]
	}
	for i := lo; i < hi; i++ {
		off := i * ns
		var ap, bq [ns]float64
		if op.tips != nil {
			poff := int(op.tips[i]) * ns
			ap[0], ap[1], ap[2], ap[3] = tabP[poff], tabP[poff+1], tabP[poff+2], tabP[poff+3]
		} else {
			vp0, vp1, vp2, vp3 := p0[i], p1[i], p2[i], p3[i]
			for kk := 0; kk < ns; kk++ {
				ap[kk] = freqs[0]*vp0*e.U[0*ns+kk] + freqs[1]*vp1*e.U[1*ns+kk] +
					freqs[2]*vp2*e.U[2*ns+kk] + freqs[3]*vp3*e.U[3*ns+kk]
			}
		}
		if oq.tips != nil {
			qoff := int(oq.tips[i]) * ns
			bq[0], bq[1], bq[2], bq[3] = tabQ[qoff], tabQ[qoff+1], tabQ[qoff+2], tabQ[qoff+3]
		} else {
			vq0, vq1, vq2, vq3 := q0[i], q1[i], q2[i], q3[i]
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
