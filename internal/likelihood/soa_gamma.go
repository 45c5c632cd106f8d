package likelihood

import (
	"math"

	"repro/internal/model"
	"repro/internal/threadpool"
)

// gammaCats is a local alias for the fixed discrete-Γ category count.
const gammaCats = model.GammaCategories

// Γ block workers. A Γ CLV is stored plane-major (structure of arrays):
// each (category, state) pair owns a contiguous plane of nPat doubles.
// The workers' outer loops walk (category, state) planes, the innermost
// loop streams stride-1 over sites, and the 4-state cell is unrolled
// into straight-line code with the P-matrix row hoisted into scalars —
// the vectorizable shape of BEAGLE's CPU kernels.
//
// Vector lanes (lanes.go): on a CPU with AVX2 the Newview, evaluation,
// candidate (insertion.go) and sum-table fill workers hand the first nl
// sites of their site loop — each category's for the evaluation and the
// fill, the whole block for the Newview and the candidate — to a routine
// that computes four sites per instruction (eight for the first three
// workers on a CPU with AVX-512), and their Go loop continues at nl — the
// tail, and every site where the lanes do not run. nl is w & laneMask for
// the fill and gammaLaneSites(w) for the other three: w &^ 3 at width 4,
// w at width 8. The Go loop is the single statement of each expression; a
// lane evaluates it for its site with the same operands in the same
// order. The Newview and candidate routines take their sites' scaling
// decisions and write their scale counts themselves, so the Go scaling
// pass runs only for a block with a site to rescale.
//
// Expression order (docs/DETERMINISM.md §8): a site's value is one fixed
// expression (operands and association order) whichever worker computes
// it, per-site accumulators are added in ascending (category, state)
// order via a per-site accumulator array, and the scaling predicate is
// an order-independent OR over the column. Loop order over independent
// values is free; everything order-sensitive is pinned.
//
// One worker per operation, for every operand shape: a tip side reads
// from a table (fastpath.go) the value an inner side computes from its
// planes — the tip's 0/1 vector, had it been loaded into an inner slot —
// so a tip and the same tip loaded into an inner slot give the same bits
// (fastpath_test.go). The lane routines take a tip flag per side.

// soaColGamma loads the (site i, category c) state column of a Γ CLV:
// four strided reads, one per state plane (the rare rescaled insertion
// site, insertion.go).
func soaColGamma(clv []float64, n, i, c int) [ns]float64 {
	p := clv[(c*ns)*n:]
	return [ns]float64{p[i], p[n+i], p[2*n+i], p[3*n+i]}
}

// window returns the w entries of v from off on. Every plane a block
// worker streams is cut to such a window of the block's width before the
// site loop, so all of a loop's slices have the loop's trip count as
// their length and the compiler drops the per-element bounds checks
// (docs/PERFORMANCE.md §6; make kernel-bce counts what is left).
func window(v []float64, off, w int) []float64 { return v[off:][:w] }

// planes returns the block windows of the four state planes of n sites
// each that start at plane first of v: a Γ CLV's category c at first =
// c·4, a PSR CLV at first = 0.
func planes(v []float64, first, n, lo, w int) (p0, p1, p2, p3 []float64) {
	return window(v, first*n+lo, w), window(v, (first+1)*n+lo, w), window(v, (first+2)*n+lo, w), window(v, (first+3)*n+lo, w)
}

// zeroScales stands in for the scale counts of a tip operand, which has
// none: read-only, one block wide.
var zeroScales [threadpool.BlockSize]int32

// scaleWindow is window for an operand's scale counts; a nil s (a tip)
// reads as zeros.
func scaleWindow(s []int32, lo, w int) []int32 {
	if s == nil {
		s, lo = zeroScales[:], 0
	}
	return s[lo:][:w]
}

// newviewGammaSoABlock is the Newview worker under Γ, every operand shape:
// a tip side reads its P·tipVec table row (tabA/tabB), an inner side
// computes the product from its planes, and the value is la·lb. A cherry
// is the case of two tips. The first nl sites, all four categories, run in
// one lane call (newviewLanes) that also takes their scaling decision and
// writes their scale counts; the Go loop does the rest, and the scaling
// pass runs only for a block with a site to rescale.
func (k *Kernel) newviewGammaSoABlock(dclv []float64, dscale []int32, oa, ob operand, tabA, tabB []float64, pa, pb [][ns * ns]float64, lo, hi int) {
	// noScale[j] records that site lo+j produced at least one entry at
	// or above ScaleThreshold (or a NaN) — an order-independent OR over
	// the column's entries; a site with none is rescaled. Stack scratch:
	// per-goroutine, so concurrent blocks never share it.
	var noScaleBuf [threadpool.BlockSize]bool
	k.newviewGammaBlock(dclv, dscale, noScaleBuf[:hi-lo], oa, ob, tabA, tabB, pa, pb, lo)
}

// newviewGammaBlock is newviewGammaSoABlock over the len(noScale) sites
// from lo, noScale (zeroed) its scratch.
func (k *Kernel) newviewGammaBlock(dclv []float64, dscale []int32, noScale []bool, oa, ob operand, tabA, tabB []float64, pa, pb [][ns * ns]float64, lo int) {
	w := len(noScale)
	sa, sb, ds := scaleWindow(oa.scale, lo, w), scaleWindow(ob.scale, lo, w), dscale[lo:][:w]
	nl := gammaLaneSites(w)
	rescale := newviewLanes(dclv, noScale, sa, sb, ds, oa, ob, tabA, tabB, pa, pb, k.nPat, lo, nl)
	if nl < w {
		k.newviewGammaSites(dclv, noScale, oa, ob, tabA, tabB, pa, pb, lo)
	}
	// The scale counts of the sites the lanes leave: ds = sa + sb, plus one
	// at a site that rescales.
	for j := nl; j < w; j++ {
		sc := sa[j] + sb[j]
		if !noScale[j] {
			sc++
			rescale = true
		}
		ds[j] = sc
	}
	if rescale {
		k.finishNewviewGammaSoA(dclv, noScale, lo)
	}
}

// newviewGammaSites stores the unscaled values of newviewGammaSoABlock's
// block, the len(noScale) sites from lo, from site gammaLaneSites(w) on —
// the sites the lanes leave — into dclv and ORs each site's scale test
// into noScale.
func (k *Kernel) newviewGammaSites(dclv []float64, noScale []bool, oa, ob operand, tabA, tabB []float64, pa, pb [][ns * ns]float64, lo int) {
	n := k.nPat
	w := len(noScale)
	nl := gammaLaneSites(w)
	tipsA, tipsB := tipWindow(oa, lo, w), tipWindow(ob, lo, w)
	for c := 0; c < gammaCats; c++ {
		pca := &pa[c]
		pcb := &pb[c]
		// One fused sweep per category: each site's four child values per
		// operand load once, and the four state outputs store to their
		// planes in the same pass — the loop-order freedom the plane-major
		// layout buys.
		a0, a1, a2, a3 := operandPlanes(oa, n, c*ns*n+lo, w)
		b0, b1, b2, b3 := operandPlanes(ob, n, c*ns*n+lo, w)
		d0, d1, d2, d3 := planes(dclv, c*ns, n, lo, w)
		tbase := c * 16 * ns
		for j := nl; j < len(noScale); j++ {
			var la, lb [ns]float64
			if oa.tips != nil {
				t := tbase + int(tipsA[j])*ns
				la = [ns]float64(tabA[t : t+ns])
			} else {
				av0, av1, av2, av3 := a0[j], a1[j], a2[j], a3[j]
				la[0] = pca[0]*av0 + pca[1]*av1 + pca[2]*av2 + pca[3]*av3
				la[1] = pca[4]*av0 + pca[5]*av1 + pca[6]*av2 + pca[7]*av3
				la[2] = pca[8]*av0 + pca[9]*av1 + pca[10]*av2 + pca[11]*av3
				la[3] = pca[12]*av0 + pca[13]*av1 + pca[14]*av2 + pca[15]*av3
			}
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
			d0[j], d1[j], d2[j], d3[j] = v0, v1, v2, v3
			if v0 >= ScaleThreshold || v0 != v0 ||
				v1 >= ScaleThreshold || v1 != v1 ||
				v2 >= ScaleThreshold || v2 != v2 ||
				v3 >= ScaleThreshold || v3 != v3 {
				noScale[j] = true
			}
		}
	}
}

// finishNewviewGammaSoA is the scaling pass of a Γ Newview block with a
// site to rescale: every entry of such a site times ScaleFactor. The
// multiply is per-entry independent, so applying it in a separate plane
// pass yields the same bits as a per-site column loop. Rare, so kept out
// of line.
//
//go:noinline
func (k *Kernel) finishNewviewGammaSoA(dclv []float64, noScale []bool, lo int) {
	n := k.nPat
	w := len(noScale)
	for p := 0; p < gammaCats*ns; p++ {
		d := window(dclv, p*n+lo, w)
		for j, ok := range noScale {
			if !ok {
				d[j] *= ScaleFactor
			}
		}
	}
}

// evaluateGammaSoABlock is the Evaluate worker, every operand shape: the
// near operand p is a CLV or a tip's 0/1 vector, the far one's P product
// is computed from its CLV or, for a tip, read from tab.
func (k *Kernel) evaluateGammaSoABlock(op, oq operand, pm [][ns * ns]float64, tab []float64, catW float64, lo, hi int) float64 {
	w := hi - lo
	var siteBuf [threadpool.BlockSize]float64
	site := siteBuf[:w]
	k.evaluateGammaSites(site, op, oq, pm, tab, catW, lo)
	return k.sumSiteLnl(site, scaleWindow(op.scale, lo, w), scaleWindow(oq.scale, lo, w), lo)
}

// evaluateGammaSites accumulates the per-site likelihoods of
// evaluateGammaSoABlock's block into site (zeroed), in ascending (category,
// state) term order.
func (k *Kernel) evaluateGammaSites(site []float64, op, oq operand, pm [][ns * ns]float64, tab []float64, catW float64, lo int) {
	freqs := &k.par.Freqs
	f0, f1, f2, f3 := freqs[0], freqs[1], freqs[2], freqs[3]
	n := k.nPat
	w := len(site)
	nl := gammaLaneSites(w)
	tipsP, tipsQ := tipWindow(op, lo, w), tipWindow(oq, lo, w)
	for c := 0; c < gammaCats; c++ {
		pc := &pm[c]
		p0, p1, p2, p3 := operandPlanes(op, n, c*ns*n+lo, w)
		q0, q1, q2, q3 := operandPlanes(oq, n, c*ns*n+lo, w)
		tbase := c * 16 * ns
		evaluateLanes(site, p0, tipsP, &k.tipVec, op.tips != nil, q0, tipsQ, tab, oq.tips != nil, tbase, n, pc, f0, f1, f2, f3, catW, nl)
		for j := nl; j < len(site); j++ {
			var vp, right [ns]float64
			if op.tips != nil {
				vp = k.tipVec[tipsP[j]]
			} else {
				vp = [ns]float64{p0[j], p1[j], p2[j], p3[j]}
			}
			if oq.tips != nil {
				t := tbase + int(tipsQ[j])*ns
				right = [ns]float64(tab[t : t+ns])
			} else {
				qv0, qv1, qv2, qv3 := q0[j], q1[j], q2[j], q3[j]
				right[0] = pc[0]*qv0 + pc[1]*qv1 + pc[2]*qv2 + pc[3]*qv3
				right[1] = pc[4]*qv0 + pc[5]*qv1 + pc[6]*qv2 + pc[7]*qv3
				right[2] = pc[8]*qv0 + pc[9]*qv1 + pc[10]*qv2 + pc[11]*qv3
				right[3] = pc[12]*qv0 + pc[13]*qv1 + pc[14]*qv2 + pc[15]*qv3
			}
			s := site[j]
			s += f0 * vp[0] * right[0] * catW
			s += f1 * vp[1] * right[1] * catW
			s += f2 * vp[2] * right[2] * catW
			s += f3 * vp[3] * right[3] * catW
			site[j] = s
		}
	}
}

// sumSiteLnl is the tail of the evaluation workers of both models: the
// block's weighted log likelihood from its per-site likelihoods (replaced
// by their logs) and the two operands' scale counts, summed in site order.
func (k *Kernel) sumSiteLnl(site []float64, sp, sq []int32, lo int) float64 {
	weights := k.data.Weights[lo:][:len(site)]
	sp, sq = sp[:len(site)], sq[:len(site)]
	logSites(site)
	total := 0.0
	for j, l := range site {
		sc := sp[j] + sq[j]
		total += float64(weights[j]) * (l + float64(sc)*LogScaleStep)
	}
	return total
}

// prepareGammaSoABlock is the sum-table fill, every operand shape: a tip
// side reads its category-free prep-table entry (fastpath.go, computed by
// the inner side's expression), an inner side evaluates the expression
// from its planes, and ap·bq lands in plane (c, k) of the plane-major
// table (sumtable.go), a window of the block's width written stride-1.
// Entries are mutually independent (the order-sensitive consumption
// happens in derivativesGammaBlock), so the loop order is free: per
// plane, one pass stores ap and a second multiplies it by bq. The first
// w & laneMask sites of each category run in lanes (laneGammaPrepare).
func (k *Kernel) prepareGammaSoABlock(st []float64, op, oq operand, tabP, tabQ []float64, lo, hi int) {
	e := k.par.Eigen
	freqs := &k.par.Freqs
	n := k.nPat
	w := hi - lo
	nl := w & laneMask
	ut := &e.UT
	f0, f1, f2, f3 := freqs[0], freqs[1], freqs[2], freqs[3]
	tipsP, tipsQ := tipWindow(op, lo, w), tipWindow(oq, lo, w)
	for c := 0; c < gammaCats; c++ {
		p0, p1, p2, p3 := operandPlanes(op, n, c*ns*n+lo, w)
		q0, q1, q2, q3 := operandPlanes(oq, n, c*ns*n+lo, w)
		laneGammaPrepare(window(st, c*ns*n+lo, w), p0, tipsP, tabP, op.tips != nil, q0, tipsQ, tabQ, oq.tips != nil, n, ut, &e.UInv, freqs, nl)
		for kk := 0; kk < ns; kk++ {
			sk := window(st, (c*ns+kk)*n+lo, w)
			if op.tips != nil {
				for j := nl; j < len(sk); j++ {
					sk[j] = tabP[int(tipsP[j])*ns+kk]
				}
			} else {
				u0, u1, u2, u3 := ut[kk*ns], ut[kk*ns+1], ut[kk*ns+2], ut[kk*ns+3]
				for j := nl; j < len(sk); j++ {
					sk[j] = f0*p0[j]*u0 + f1*p1[j]*u1 + f2*p2[j]*u2 + f3*p3[j]*u3
				}
			}
			if oq.tips != nil {
				for j := nl; j < len(sk); j++ {
					sk[j] *= tabQ[int(tipsQ[j])*ns+kk]
				}
			} else {
				w0, w1, w2, w3 := e.UInv[kk*ns], e.UInv[kk*ns+1], e.UInv[kk*ns+2], e.UInv[kk*ns+3]
				for j := nl; j < len(sk); j++ {
					sk[j] *= w0*q0[j] + w1*q1[j] + w2*q2[j] + w3*q3[j]
				}
			}
		}
	}
}

// derivativesGammaBlock is the Derivatives worker under Γ. The
// sum table is plane-major (sumtable.go): site i's entry (c, k) is
// sumTab[(c·4+k)·nPat+i]. On a CPU with AVX2 the per-site terms of the
// first (hi−lo) &^ 3 sites come from laneGammaDerivatives, 64 sites a
// call, each with derivativesGammaSites' expressions, and foldTerms sums
// them in site order over the sites it marks valid; derivativesGammaSites
// does the tail.
func (k *Kernel) derivativesGammaBlock(sumTab []float64, ex, lam *[gammaCats][ns]float64, catW float64, lo, hi int) (d1, d2 float64) {
	i := lo
	var terms [laneChunk / 4]siteTerms
	for laneMask != 0 && hi-i >= 4 {
		nl := min(hi-i, laneChunk) &^ 3
		laneGammaDerivatives(terms[:], sumTab, k.data.Weights, k.nPat, i, nl, ex, lam, catW)
		d1, d2 = foldTerms(terms[:], nl, d1, d2)
		i += nl
	}
	if i < hi {
		d1, d2 = k.derivativesGammaSites(sumTab, ex, lam, catW, i, hi, d1, d2)
	}
	return d1, d2
}

// derivativesGammaSites adds the derivative terms of sites lo..hi−1 to
// (d1, d2), in site order. A site's three sums run over the categories in
// ascending order, each extending left-to-right from its running value
// (from +0) over the four eigen terms, in per-site accumulators that the
// category loop streams stride-1 over the planes; then each is scaled by
// catW.
func (k *Kernel) derivativesGammaSites(sumTab []float64, ex, lam *[gammaCats][ns]float64, catW float64, lo, hi int, d1, d2 float64) (float64, float64) {
	n := k.nPat
	w := hi - lo
	var fBuf, fpBuf, fppBuf [threadpool.BlockSize]float64
	f, fp, fpp := fBuf[:w], fpBuf[:w], fppBuf[:w]
	for c := 0; c < gammaCats; c++ {
		s0, s1, s2, s3 := planes(sumTab, c*ns, n, lo, w)
		exc, lac := &ex[c], &lam[c]
		for j := range f {
			t0 := s0[j] * exc[0]
			t1 := s1[j] * exc[1]
			t2 := s2[j] * exc[2]
			t3 := s3[j] * exc[3]
			f[j] = f[j] + t0 + t1 + t2 + t3
			fp[j] = fp[j] + lac[0]*t0 + lac[1]*t1 + lac[2]*t2 + lac[3]*t3
			fpp[j] = fpp[j] + lac[0]*lac[0]*t0 + lac[1]*lac[1]*t1 + lac[2]*lac[2]*t2 + lac[3]*lac[3]*t3
		}
	}
	weights := k.data.Weights[lo:hi]
	for j := range f {
		fj, fpj, fppj := f[j]*catW, fp[j]*catW, fpp[j]*catW
		if fj <= 0 || math.IsNaN(fj) {
			// Pathological branch proposals can underflow the unscaled
			// site likelihood; skip the site rather than poison the sum
			// (Newton falls back to bisection on bad curvature anyway).
			continue
		}
		wt := float64(weights[j])
		ratio := fpj / fj
		d1 += wt * ratio
		d2 += wt * (fppj/fj - ratio*ratio)
	}
	return d1, d2
}
