package likelihood

// This file routes every kernel's block work through one cached closure.
//
// Handing the pool a fresh closure per call would heap-allocate on every
// likelihood operation (the closure escapes into the pool's worker
// machinery), and the steady-state hot path must run allocation-free
// (docs/PERFORMANCE.md, asserted by testing.AllocsPerRun in the engine
// packages). Instead, each kernel stages its per-call operands in k.ra
// and dispatches on an opcode to the block workers (soa_gamma.go,
// soa_psr.go, insertion.go, and the derivative workers in gamma.go /
// psr.go), so the computed bits are exactly those of the direct-closure
// formulation.

// runOp selects the staged block operation.
type runOp uint8

const (
	opNvGammaTipTip runOp = iota
	opNvGammaTipInner
	opNvGammaInner
	opEvalGamma
	opEvalGammaTip
	opPrepGamma
	opPrepGammaFast
	opDerivGamma
	opNvPSRFast
	opNvPSRInner
	opEvalPSR
	opEvalPSRTip
	opPrepPSR
	opPrepPSRFast
	opDerivPSR
	opGradGamma
	opGradGammaFast
	opGradPSR
	opGradPSRFast
	opPrepInsGamma
	opPrepInsPSR
	opInsGamma
	opInsGammaTip
	opInsPSR
	opInsPSRTip
)

// runArgs stages the operands of the in-flight block operation. Workers
// only read it; every field is set before runBlocks and stable until
// the join, so concurrent block execution stays race-free.
type runArgs struct {
	op runOp

	dclv   []float64
	dscale []int32
	// oa/ob double as Newview's children and Evaluate/Prepare's (p, q).
	oa, ob operand
	// pa doubles as Evaluate's single P-matrix set.
	pa, pb [][ns * ns]float64
	// tabA/tabB double as the prep tip tables (tabP, tabQ).
	tabA, tabB []float64
	pair       []float64
	catW       float64

	exG, lamG *[gammaCats][ns]float64
	exP, lamP [][ns]float64

	parts []blockPartial
}

// runBlocks executes the staged operation over the kernel's patterns on
// its pool through the cached closure.
func (k *Kernel) runBlocks() {
	if k.blockFn == nil {
		k.blockFn = func(blk, lo, hi int) { k.dispatchBlock(blk, lo, hi) }
	}
	k.pool.Run(k.nPat, k.blockFn)
}

// dispatchBlock executes one block of the staged operation.
func (k *Kernel) dispatchBlock(blk, lo, hi int) {
	ra := &k.ra
	switch ra.op {
	case opNvGammaTipTip:
		k.newviewGammaTipTipSoABlock(ra.dclv, ra.dscale, ra.oa, ra.ob, ra.pair, &k.pairScaleScr, lo, hi)
		ra.parts[blk].cols = int64(hi-lo) * gammaCats

	case opNvGammaTipInner:
		k.newviewGammaTipInnerSoABlock(ra.dclv, ra.dscale, ra.oa, ra.ob, ra.tabA, ra.tabB, ra.pa, ra.pb, lo, hi)
		ra.parts[blk].cols = int64(hi-lo) * gammaCats

	case opNvGammaInner:
		k.newviewGammaSoABlock(ra.dclv, ra.dscale, ra.oa, ra.ob, ra.pa, ra.pb, lo, hi)
		ra.parts[blk].cols = int64(hi-lo) * gammaCats

	case opEvalGamma:
		ra.parts[blk].lnL = k.evaluateGammaSoABlock(ra.oa, ra.ob, ra.pa, ra.catW, lo, hi)
		ra.parts[blk].cols = int64(hi-lo) * gammaCats

	case opEvalGammaTip:
		ra.parts[blk].lnL = k.evaluateGammaTipSoABlock(ra.oa, ra.ob, ra.tabB, ra.catW, lo, hi)
		ra.parts[blk].cols = int64(hi-lo) * gammaCats

	case opPrepGamma:
		k.prepareGammaSoABlock(ra.oa, ra.ob, lo, hi)
		ra.parts[blk].cols = int64(hi-lo) * gammaCats

	case opPrepGammaFast:
		k.prepareGammaFastSoABlock(ra.oa, ra.ob, ra.tabA, ra.tabB, lo, hi)
		ra.parts[blk].cols = int64(hi-lo) * gammaCats

	case opDerivGamma:
		ra.parts[blk].d1, ra.parts[blk].d2 = k.derivativesGammaBlock(ra.exG, ra.lamG, ra.catW, lo, hi)
		ra.parts[blk].cols = int64(hi-lo) * gammaCats

	case opNvPSRFast:
		k.newviewPSRFastSoABlock(ra.dclv, ra.dscale, ra.oa, ra.ob, ra.tabA, ra.tabB, ra.pa, ra.pb, lo, hi)
		ra.parts[blk].cols = int64(hi - lo)

	case opNvPSRInner:
		k.newviewPSRSoABlock(ra.dclv, ra.dscale, ra.oa, ra.ob, ra.pa, ra.pb, lo, hi)
		ra.parts[blk].cols = int64(hi - lo)

	case opEvalPSR:
		ra.parts[blk].lnL = k.evaluatePSRSoABlock(ra.oa, ra.ob, ra.pa, lo, hi)
		ra.parts[blk].cols = int64(hi - lo)

	case opEvalPSRTip:
		ra.parts[blk].lnL = k.evaluatePSRTipSoABlock(ra.oa, ra.ob, ra.tabB, lo, hi)
		ra.parts[blk].cols = int64(hi - lo)

	case opPrepPSR:
		k.preparePSRSoABlock(ra.oa, ra.ob, lo, hi)
		ra.parts[blk].cols = int64(hi - lo)

	case opPrepPSRFast:
		k.preparePSRFastSoABlock(ra.oa, ra.ob, ra.tabA, ra.tabB, lo, hi)
		ra.parts[blk].cols = int64(hi - lo)

	case opDerivPSR:
		ra.parts[blk].d1, ra.parts[blk].d2 = k.derivativesPSRBlock(ra.exP, ra.lamP, lo, hi)
		ra.parts[blk].cols = int64(hi - lo)

	case opGradGamma:
		// Fused all-branch gradient (gradient.go): prepare this block's
		// sum-table range, then immediately consume it with the derivative
		// worker. The range is written and read by the same goroutine, so
		// the fusion is race-free and the bits match PrepareDerivatives
		// followed by Derivatives exactly.
		k.prepareGammaSoABlock(ra.oa, ra.ob, lo, hi)
		ra.parts[blk].d1, ra.parts[blk].d2 = k.derivativesGammaBlock(ra.exG, ra.lamG, ra.catW, lo, hi)
		ra.parts[blk].cols = 2 * int64(hi-lo) * gammaCats

	case opGradGammaFast:
		k.prepareGammaFastSoABlock(ra.oa, ra.ob, ra.tabA, ra.tabB, lo, hi)
		ra.parts[blk].d1, ra.parts[blk].d2 = k.derivativesGammaBlock(ra.exG, ra.lamG, ra.catW, lo, hi)
		ra.parts[blk].cols = 2 * int64(hi-lo) * gammaCats

	case opGradPSR:
		k.preparePSRSoABlock(ra.oa, ra.ob, lo, hi)
		ra.parts[blk].d1, ra.parts[blk].d2 = k.derivativesPSRBlock(ra.exP, ra.lamP, lo, hi)
		ra.parts[blk].cols = 2 * int64(hi-lo)

	case opGradPSRFast:
		k.preparePSRFastSoABlock(ra.oa, ra.ob, ra.tabA, ra.tabB, lo, hi)
		ra.parts[blk].d1, ra.parts[blk].d2 = k.derivativesPSRBlock(ra.exP, ra.lamP, lo, hi)
		ra.parts[blk].cols = 2 * int64(hi-lo)

	case opPrepInsGamma:
		k.prepareInsertionGammaSoABlock(ra.ob, ra.pa, ra.tabB, lo, hi)
		ra.parts[blk].cols = int64(hi-lo) * gammaCats

	case opPrepInsPSR:
		k.prepareInsertionPSRSoABlock(ra.ob, ra.pa, ra.tabB, lo, hi)
		ra.parts[blk].cols = int64(hi - lo)

	// Insertion scores (insertion.go): the inserted vertex's Newview and
	// the evaluation against the insertion table in one sweep.
	case opInsGamma:
		ra.parts[blk].lnL, ra.parts[blk].rescaled = k.scoreInsertionGammaSoABlock(ra.oa, ra.ob, ra.pa, ra.catW, lo, hi)
		ra.parts[blk].cols = 2 * int64(hi-lo) * gammaCats

	case opInsGammaTip:
		ra.parts[blk].lnL, ra.parts[blk].rescaled = k.scoreInsertionGammaTipSoABlock(ra.oa, ra.ob, ra.pa, ra.tabB, ra.catW, lo, hi)
		ra.parts[blk].cols = 2 * int64(hi-lo) * gammaCats

	case opInsPSR:
		ra.parts[blk].lnL, ra.parts[blk].rescaled = k.scoreInsertionPSRSoABlock(ra.oa, ra.ob, ra.pa, lo, hi)
		ra.parts[blk].cols = 2 * int64(hi-lo)

	case opInsPSRTip:
		ra.parts[blk].lnL, ra.parts[blk].rescaled = k.scoreInsertionPSRTipSoABlock(ra.oa, ra.ob, ra.pa, ra.tabB, lo, hi)
		ra.parts[blk].cols = 2 * int64(hi-lo)
	}
}
