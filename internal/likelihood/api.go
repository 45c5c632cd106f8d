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

// Every call below stages its block operations into the kernel's program
// (dispatch.go) and returns; nothing is computed until the program is
// flushed — by the engine, for all of a rank's kernels in one dispatch, or
// by Flush for a kernel that stands alone. A call's operands must have
// been computed by the time its operation runs: by an earlier program, or
// by an earlier call of the same one.

// Newview stages one CLV update.
func (k *Kernel) Newview(s Step) {
	dclv, dscale := k.slot(s.Dst)
	k.newview(dclv, dscale, k.operand(s.A), k.operand(s.B), s.TA, s.TB)
}

// newview stages the combine of two operands into a destination vector
// under the kernel's rate model and moves the stamp every sum table was
// contracted under (sumtable.go).
func (k *Kernel) newview(dclv []float64, dscale []int32, oa, ob operand, ta, tb float64) {
	if k.par.Het == model.Gamma {
		k.newviewGamma(dclv, dscale, oa, ob, ta, tb)
	} else {
		k.newviewPSR(dclv, dscale, oa, ob, ta, tb)
	}
	k.stamp++
}

// Traverse stages a sequence of CLV updates in order.
func (k *Kernel) Traverse(steps []Step) {
	for _, s := range steps {
		k.Newview(s)
	}
}

// Evaluate stages the weighted log likelihood over the local patterns for
// a virtual root on edge (p, q) with branch length t; the value is the
// finished program's next result (LnL).
func (k *Kernel) Evaluate(p, q NodeRef, t float64) {
	k.evaluate(k.operand(p), k.operand(q), t)
}

// evaluate stages an evaluation under the kernel's rate model.
func (k *Kernel) evaluate(op, oq operand, t float64) {
	if k.par.Het == model.Gamma {
		k.evaluateGamma(op, oq, t)
	} else {
		k.evaluatePSR(op, oq, t)
	}
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
