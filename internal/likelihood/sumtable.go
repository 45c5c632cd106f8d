package likelihood

import (
	"math"

	"repro/internal/model"
)

// Sum tables: the eigen-basis factorization behind every branch-length
// derivative (docs/PERFORMANCE.md §5). Contracting an edge (p, q) — each
// side a tip, a post-order CLV or an outer vector — fills its sum table,
// the product that does not depend on the branch length,
//
//	Γ:   st[((i·C)+c)·4+k] = (Σ_x π_x p_x U_{xk}) · (Σ_y U⁻¹_{ky} q_y)
//	PSR: the same without the category index,
//
// pattern-major, and from it (d lnL/dt, d² lnL/dt²) at any branch length
// t costs one pass over the sites and a few exponentials. The kernel keeps
// its tables in one store addressed by slot: a per-branch Newton
// (enginecore.Local.PrepareLocal) contracts into slot 0, the all-branch
// gradient contracts plan edge b into slot b, and either evaluates any
// number of lengths from there. A contracting gradient stages Contract and
// Derivatives back to back per edge; block-major execution (dispatch.go)
// then runs each block's contraction and, right after it on the same
// goroutine, the derivative that reads the block's range — the fused
// operation, bit for bit (docs/DETERMINISM.md §7, §8).
//
// A table is only as current as its operands. Each slot records the edge
// it was contracted from, the kernel's stamp and the parameter generation
// at the time; every staged Newview and every InvalidateAll moves the
// stamp, every change of a quantity a P matrix depends on moves the
// generation. Contracted reports both — the one rule by which a receiver
// of derivative frames it did not order admits them
// (enginecore.Local.AdmitDerivatives).

// sumSlot is one slot of the sum-table store.
type sumSlot struct {
	tab  []float64
	p, q Ref
	// stamp and gen are the kernel's stamp and the parameter generation
	// when the table was contracted.
	stamp, gen uint64
}

// prepareOps are the sum-table fills by [Γ][a tip operand read through
// the prep tables].
var prepareOps = [2][2]runOp{
	{opPrepPSR, opPrepPSRFast},
	{opPrepGamma, opPrepGammaFast},
}

// Contract stages the fill of slot s's sum table from edge (p, q), p the
// vector below the edge and q the one above it. Blocks write disjoint
// ranges of the table. Tip operands use the category-free prep tables
// from fastpath.go.
func (k *Kernel) Contract(s int, p, q Ref) {
	for len(k.sums) <= s {
		k.sums = append(k.sums, sumSlot{})
	}
	sl := &k.sums[s]
	if need := k.clvLen(); cap(sl.tab) < need {
		sl.tab = make([]float64, need)
	} else {
		sl.tab = sl.tab[:need]
	}
	sl.p, sl.q, sl.stamp, sl.gen = p, q, k.stamp, k.par.Generation()

	op, oq := k.operand(p), k.operand(q)
	fast := op.tips != nil || oq.tips != nil
	ra := k.stage(prepareOps[b2i(k.par.Het == model.Gamma)][b2i(fast)])
	if fast {
		ra.tabA, ra.tabB = k.prepTables(op, oq)
	}
	ra.sumTab, ra.oa, ra.ob = sl.tab, op, oq
	k.flops.Derivative += k.cols()
}

// Derivatives stages (d lnL/dt, d² lnL/dt²) at branch length t from slot
// s's sum table, summed over the local patterns; the pair is the finished
// program's next result (Gradient). Per-block partials combine in
// block-index order.
func (k *Kernel) Derivatives(s int, t float64) {
	if s >= len(k.sums) || k.sums[s].tab == nil {
		// Unreachable from input: the search evaluates a slot only after
		// contracting it, and a fork-join worker admits a derivative frame
		// only when every slot it reads is current
		// (enginecore.Local.AdmitDerivatives).
		panic("likelihood: Derivatives from a sum-table slot never contracted")
	}
	code := opDerivPSR
	if k.par.Het == model.Gamma {
		code = opDerivGamma
	}
	ra := k.stageReducing(code)
	ra.sumTab = k.sums[s].tab
	k.exponentials(ra, t)
	k.flops.Derivative += k.cols()
}

// Contracted reports the edge slot s's sum table was contracted from and
// whether the table is current: no Newview, InvalidateAll or parameter
// change staged or made since.
func (k *Kernel) Contracted(s int) (p, q Ref, ok bool) {
	if s < 0 || s >= len(k.sums) || k.sums[s].tab == nil {
		return Ref{}, Ref{}, false
	}
	sl := &k.sums[s]
	return sl.p, sl.q, sl.stamp == k.stamp && sl.gen == k.par.Generation()
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
