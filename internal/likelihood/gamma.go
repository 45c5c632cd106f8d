package likelihood

import (
	"math"

	"repro/internal/model"
	"repro/internal/threadpool"
)

// gammaCats is a local alias for the fixed discrete-Γ category count.
const gammaCats = model.GammaCategories

// Γ kernels: staging of the Newview and Evaluate block operations whose
// workers live in soa_gamma.go, plus the derivative worker, which reads
// only the sum table (its staging, shared with PSR, is in api.go).

// newviewGamma stages the combine of operands oa and ob across branch
// lengths ta and tb into the conditional vector (dclv, dscale) under the Γ
// model — the CLV or outer slot Newview's destination names. Each pattern
// block writes a disjoint range, so the result is identical at every
// thread count.
//
// When a child is a tip, the per-site P·tipVec product is a table read
// (fastpath.go); the table entries are computed by the exact expression
// of the inner-inner worker, so the dispatch never changes a bit of the
// result.
func (k *Kernel) newviewGamma(dclv []float64, dscale []int32, oa, ob operand, ta, tb float64) {
	pa := k.probMatricesFor(ta)
	pb := k.probMatricesFor(tb)

	var ra *runArgs
	if oa.tips != nil && ob.tips != nil {
		k.fp.NewviewTipTip++
		k.countSites(false)
		ra = k.stage(opNvGammaTipTip)
		tabA, tabB := k.tipTable(pa, oa), k.tipTable(pb, ob)
		ra.pair = k.mem.tabs.take(gammaCats * 16 * 16 * ns)
		ra.pairScale = &k.mem.pairScales.take(1)[0]
		k.fillPairTable(ra.pair, ra.pairScale, tabA, tabB, gammaCats, oa.mask, ob.mask)
	} else if oa.tips != nil || ob.tips != nil {
		k.countSites(true)
		ra = k.stage(opNvGammaTipInner)
		if oa.tips != nil {
			ra.tabA = k.tipTable(pa, oa)
		}
		if ob.tips != nil {
			ra.tabB = k.tipTable(pb, ob)
		}
	} else {
		k.countSites(true)
		ra = k.stage(opNvGammaInner)
	}
	ra.dclv, ra.dscale, ra.oa, ra.ob, ra.pa, ra.pb = dclv, dscale, oa, ob, pa, pb
	k.flops.Newview += k.cols()
}

// evaluateGamma stages the weighted log likelihood summed over the local
// patterns for a virtual root on a branch of length t between op (the
// near vector) and oq (the far one). Per-block partial sums are combined
// in block-index order at the join, so the total is bit-identical to
// the serial kernel at every thread count.
//
// Only the far operand oq needs the P product, so the worker is chosen
// by oq being a tip.
func (k *Kernel) evaluateGamma(op, oq operand, t float64) {
	pm := k.probMatricesFor(t)
	// Only a tip-tip root edge has no lanes (evaluateGammaTipBlock).
	k.countSites(op.tips == nil || oq.tips == nil)
	var ra *runArgs
	if oq.tips != nil {
		ra = k.stageReducing(opEvalGammaTip)
		ra.tabB = k.tipTable(pm, oq)
	} else {
		ra = k.stageReducing(opEvalGamma)
	}
	ra.oa, ra.ob, ra.pa, ra.catW = op, oq, pm, k.par.CatWeight()
	k.flops.Evaluate += k.cols()
}

// evaluateGammaTipBlock is the tip-tip per-block worker of evaluateGamma:
// both operands are tips, so no CLV is read. The far side's per-site
// P·tipVec dot product is a table read whose entries were computed by
// evaluateGammaSoABlock's `right` expression, keeping the sum
// bit-identical to it.
func (k *Kernel) evaluateGammaTipBlock(op, oq operand, tab []float64, catW float64, lo, hi int) float64 {
	freqs := &k.par.Freqs
	var siteBuf [threadpool.BlockSize]float64
	site := siteBuf[:hi-lo]
	for i := lo; i < hi; i++ {
		s := 0.0
		code := int(oq.tips[i])
		vp := k.tipVec[op.tips[i]]
		for c := 0; c < gammaCats; c++ {
			toff := (c*16 + code) * ns
			for x := 0; x < ns; x++ {
				s += freqs[x] * vp[x] * tab[toff+x] * catW
			}
		}
		site[i-lo] = s
	}
	// No scale counts: a tip has none, and w·(log + 0·LogScaleStep) is
	// w·log to the bit.
	return k.sumSiteLnl(site, zeroScales[:], zeroScales[:], lo)
}

// derivativesGammaBlock is the per-block worker of derivativesGamma.
// The four-state loop is unrolled with constant indices into a capped
// slice (no bounds checks in the hot loop); each sum extends
// left-to-right from its running value — the identical expression the
// rolled loop evaluated, so the unroll is bit-invisible.
func (k *Kernel) derivativesGammaBlock(sumTab []float64, ex, lam *[gammaCats][ns]float64, catW float64, lo, hi int) (d1, d2 float64) {
	for i := lo; i < hi; i++ {
		var f, fp, fpp float64
		base := i * gammaCats * ns
		for c := 0; c < gammaCats; c++ {
			off := base + c*ns
			st := sumTab[off : off+ns : off+ns]
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
