package likelihood

import (
	"math"

	"repro/internal/model"
	"repro/internal/msa"
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
