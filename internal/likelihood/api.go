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
// under the kernel's rate model and marks the sum table stale.
func (k *Kernel) newview(dclv []float64, dscale []int32, oa, ob operand, ta, tb float64) {
	if k.par.Het == model.Gamma {
		k.newviewGamma(dclv, dscale, oa, ob, ta, tb)
	} else {
		k.newviewPSR(dclv, dscale, oa, ob, ta, tb)
	}
	k.prepared = false
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

// PrepareDerivatives stages the build of the sum table for edge (p, q).
// Subsequent Derivatives calls evaluate at arbitrary branch lengths
// without touching the CLVs — the factorization that makes Newton
// iterations cheap.
func (k *Kernel) PrepareDerivatives(p, q NodeRef) {
	k.prepare(k.sumTable(&k.sumTab), k.operand(p), k.operand(q), false, 0)
	k.prepared = true
}

// sumTable returns *tab sized for the kernel's patterns: the kernel's one
// sum table for PrepareDerivatives, a per-edge one for the cached
// gradient. Γ: [pattern][category][eig]; PSR: [pattern][eig].
func (k *Kernel) sumTable(tab *[]float64) []float64 {
	need := k.clvLen()
	if cap(*tab) < need {
		*tab = make([]float64, need)
	}
	*tab = (*tab)[:need]
	return *tab
}

// prepareOps are the sum-table operations by [Γ][fused with the
// derivative evaluation][a tip operand read through the prep tables].
var prepareOps = [2][2][2]runOp{
	{{opPrepPSR, opPrepPSRFast}, {opGradPSR, opGradPSRFast}},
	{{opPrepGamma, opPrepGammaFast}, {opGradGamma, opGradGammaFast}},
}

// prepare stages the fill of sum table st for the edge (op, oq) — under Γ
// st[((i·C)+c)·4+k] = (Σ_x π_x clvP_x U_{xk}) · (Σ_y U⁻¹_{ky} clvQ_y),
// under PSR the same without the category index — either on its own or,
// fuse, with the derivative evaluation at branch length t, which consumes
// each block's range as soon as the block has written it. Blocks write
// disjoint sum-table ranges. Tip operands use the category-free prep
// tables from fastpath.go.
func (k *Kernel) prepare(st []float64, op, oq operand, fuse bool, t float64) {
	fast := op.tips != nil || oq.tips != nil
	code := prepareOps[b2i(k.par.Het == model.Gamma)][b2i(fuse)][b2i(fast)]
	var ra *runArgs
	if fuse {
		ra = k.stageReducing(code)
		k.exponentials(ra, t)
		k.flops.Derivative += k.cols()
	} else {
		ra = k.stage(code)
	}
	if fast {
		k.fp.PrepareTip++
		ra.tabA, ra.tabB = k.prepTables(op, oq)
	} else {
		k.fp.PrepareGeneric++
	}
	ra.sumTab, ra.oa, ra.ob = st, op, oq
	k.flops.Derivative += k.cols()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// exponentials gives ra the per-category e^{λ_k r_c t} and λ·r factors of
// a derivative evaluation at branch length t, from the program's arena.
// The stationary eigenvalue is exactly 0 (model.Eigen), so its factors are
// 0 and 1 at every positive rate and finite t.
func (k *Kernel) exponentials(ra *runArgs, t float64) {
	e := k.par.Eigen
	nc := len(k.par.CatRates)
	ex, lam := k.mem.exLam.take(nc), k.mem.exLam.take(nc)
	for c, r := range k.par.CatRates {
		for kk := 0; kk < ns-1; kk++ {
			l := e.Vals[kk] * r
			lam[c][kk] = l
			ex[c][kk] = math.Exp(l * t)
		}
		lam[c][ns-1], ex[c][ns-1] = 0, 1
	}
	if k.par.Het == model.Gamma {
		ra.exG, ra.lamG, ra.catW = (*[gammaCats][ns]float64)(ex), (*[gammaCats][ns]float64)(lam), k.par.CatWeight()
	} else {
		ra.exP, ra.lamP = ex, lam
	}
}

// Derivatives stages (d lnL/dt, d² lnL/dt²) at branch length t for the
// edge prepared by PrepareDerivatives, summed over local patterns; the
// pair is the finished program's next result (Gradient). Stage it only
// while Prepared.
func (k *Kernel) Derivatives(t float64) {
	if !k.prepared {
		// Unreachable from input: the search stages it only in updateBranch,
		// after PrepareBranch, and a fork-join worker admits the frame only
		// while every kernel is Prepared (enginecore.Local.AdmitDerivatives).
		panic("likelihood: Derivatives called before PrepareDerivatives")
	}
	k.derivatives(k.sumTab, t)
}

// Prepared reports whether the kernel's sum table is that of its last
// PrepareDerivatives, no Newview having been staged since: whether
// Derivatives may be staged.
func (k *Kernel) Prepared() bool { return k.prepared }

// derivatives stages a derivative evaluation at branch length t from sum
// table st. Per-block (d1, d2) partials combine in block-index order.
func (k *Kernel) derivatives(st []float64, t float64) {
	code := opDerivPSR
	if k.par.Het == model.Gamma {
		code = opDerivGamma
	}
	ra := k.stageReducing(code)
	ra.sumTab = st
	k.exponentials(ra, t)
	k.flops.Derivative += k.cols()
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
