package likelihood

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/msa"
	"repro/internal/threadpool"
)

// Step is one entry of a traversal descriptor: "recompute the CLV at inner
// slot Dst from operands A (across branch length TA) and B (across TB)".
// A fork-join master broadcasts sequences of these; the de-centralized
// engine computes them locally on every rank.
type Step struct {
	Dst    int32
	A, B   NodeRef
	TA, TB float64
}

// Newview executes one CLV update.
func (k *Kernel) Newview(s Step) {
	dclv, dscale := k.slot(s.Dst)
	k.newview(dclv, dscale, k.operand(s.A), k.operand(s.B), s.TA, s.TB)
}

// newview combines two operands into a destination vector under the
// kernel's rate model and marks the sum table stale.
func (k *Kernel) newview(dclv []float64, dscale []int32, oa, ob operand, ta, tb float64) {
	if k.par.Het == model.Gamma {
		k.newviewGamma(dclv, dscale, oa, ob, ta, tb)
	} else {
		k.newviewPSR(dclv, dscale, oa, ob, ta, tb)
	}
	k.prepared = false
}

// Traverse executes a sequence of CLV updates in order.
func (k *Kernel) Traverse(steps []Step) {
	for _, s := range steps {
		k.Newview(s)
	}
}

// Evaluate returns the weighted log likelihood over the local patterns for
// a virtual root on edge (p, q) with branch length t. Inner operands must
// have been computed by a prior Traverse.
func (k *Kernel) Evaluate(p, q NodeRef, t float64) float64 {
	return k.evaluate(k.operand(p), k.operand(q), t)
}

// evaluate dispatches an evaluation on the kernel's rate model.
func (k *Kernel) evaluate(op, oq operand, t float64) float64 {
	if k.par.Het == model.Gamma {
		return k.evaluateGamma(op, oq, t)
	}
	return k.evaluatePSR(op, oq, t)
}

// PrepareDerivatives builds the sum table for edge (p, q). Subsequent
// Derivatives calls evaluate at arbitrary branch lengths without touching
// the CLVs — the factorization that makes Newton iterations cheap.
func (k *Kernel) PrepareDerivatives(p, q NodeRef) {
	if k.par.Het == model.Gamma {
		k.prepareDerivativesGamma(p, q)
	} else {
		k.prepareDerivativesPSR(p, q)
	}
}

// Derivatives returns (d lnL/dt, d² lnL/dt²) at branch length t for the
// edge prepared by PrepareDerivatives, summed over local patterns.
func (k *Kernel) Derivatives(t float64) (d1, d2 float64) {
	if !k.prepared {
		panic("likelihood: Derivatives called before PrepareDerivatives")
	}
	if k.par.Het == model.Gamma {
		return k.derivativesGamma(t)
	}
	return k.derivativesPSR(t)
}

// EvaluateSiteAtRate computes the exact log likelihood of a single local
// pattern under a trial evolutionary rate, by re-running the full pruning
// recursion for just that site along the given traversal (ending at the
// virtual root edge (p, q) of length rootT). It is the inner loop of
// per-site rate optimization under the PSR model — the analogue of
// RAxML's evaluatePartialGeneric.
//
// The traversal must cover every inner vertex the root edge depends on
// (a full post-order traversal is always safe). The kernel's stored CLVs
// are not modified, and the working set is the scratch of the site's
// pattern block (threadpool.BlockSize): calls for sites of different
// blocks may run concurrently, calls within one block may not.
func (k *Kernel) EvaluateSiteAtRate(steps []Step, p, q NodeRef, rootT float64, site int, rate float64) float64 {
	if site < 0 || site >= k.nPat {
		panic(fmt.Sprintf("likelihood: site %d out of range", site))
	}
	e := k.par.Eigen
	// Reusable per-inner-slot 4-vectors for this site only; zeroed each
	// call since the traversal may not cover every slot. This runs once
	// per (site, rate) probe in the PSR rate-optimization inner loop, so
	// it must not allocate.
	blk := site / threadpool.BlockSize
	vec := k.siteVecScr[blk*k.nInner : (blk+1)*k.nInner]
	scales := k.siteScaleScr[blk*k.nInner : (blk+1)*k.nInner]
	for i := range vec {
		vec[i] = [ns]float64{}
		scales[i] = 0
	}
	var pm [ns * ns]float64

	fetch := func(r NodeRef) ([ns]float64, int32) {
		if r.Tip {
			return k.tipVec[k.data.Tips[r.Idx][site]], 0
		}
		return vec[r.Idx], scales[r.Idx]
	}
	for _, s := range steps {
		va, sa := fetch(s.A)
		vb, sb := fetch(s.B)
		var out [ns]float64
		needScale := true
		for half, src := range [2]struct {
			t float64
			v [ns]float64
		}{{s.TA, va}, {s.TB, vb}} {
			e.ProbMatrix(src.t, rate, &pm)
			for x := 0; x < ns; x++ {
				l := pm[x*ns]*src.v[0] + pm[x*ns+1]*src.v[1] + pm[x*ns+2]*src.v[2] + pm[x*ns+3]*src.v[3]
				if half == 0 {
					out[x] = l
				} else {
					out[x] *= l
				}
			}
		}
		for x := 0; x < ns; x++ {
			if out[x] >= ScaleThreshold || out[x] != out[x] {
				needScale = false
			}
		}
		sc := sa + sb
		if needScale {
			for x := 0; x < ns; x++ {
				out[x] *= ScaleFactor
			}
			sc++
		}
		vec[s.Dst] = out
		scales[s.Dst] = sc
	}
	vp, sp := fetch(p)
	vq, sq := fetch(q)
	e.ProbMatrix(rootT, rate, &pm)
	site0 := 0.0
	for x := 0; x < ns; x++ {
		right := pm[x*ns]*vq[0] + pm[x*ns+1]*vq[1] + pm[x*ns+2]*vq[2] + pm[x*ns+3]*vq[3]
		site0 += k.par.Freqs[x] * vp[x] * right
	}
	return math.Log(site0) + float64(sp+sq)*LogScaleStep
}

// CLVDigest returns a cheap order-sensitive hash of an inner slot's CLV,
// used by consistency checks in tests and debug runs of the decentralized
// engine.
func (k *Kernel) CLVDigest(slot int) uint64 {
	clv := k.clv[slot]
	if clv == nil {
		return 0
	}
	var h uint64 = 14695981039346656037
	for _, v := range clv {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	for _, s := range k.scale[slot] {
		h ^= uint64(uint32(s))
		h *= 1099511628211
	}
	return h
}

// TipStates exposes the local tip states of one taxon (read-only).
func (k *Kernel) TipStates(taxon int) []msa.State { return k.data.Tips[taxon] }
