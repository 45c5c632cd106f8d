package likelihood

import (
	"math"
	"math/bits"

	"repro/internal/telemetry"
)

// This file holds the kernel fast-path layer (docs/PERFORMANCE.md): the
// keyed P-matrix cache and the tip-state lookup tables a worker reads on
// the side of an operand that is a tip. There are no other tables: a
// cherry (two tips) reads both sides' tip tables in the same worker.
// Neither changes a bit:
//
//   - a P-cache hit returns the exact doubles the miss path computed for
//     the same (branch length, parameter generation) key, and
//   - every tip-table entry is computed by the very expression a worker
//     evaluates per site for an inner operand, on a CLV holding the tip's
//     0/1 vector, so a table read yields the same bits as the computation
//     it replaces. Only the entries a kernel can read are produced: a
//     table is indexed by the states of the tip operand's own row of this
//     slice, so each fill walks the row's state mask (Kernel.tipMasks) and
//     leaves every other code's entry untouched — typically 4–5 of 16
//     codes. A PSR site reads only its own category's row of a tip table,
//     so a PSR fill walks one mask per category (rowMasks.catMask) and
//     skips the (category, code) pairs none of the row's sites reads.
//     Where the vector lanes run (lanes.go) one laneTipTable call fills
//     the table with the same expression per entry; the Go loop is its
//     reference and every other host's path.
//
// So a tip and the same tip loaded into an inner slot give the same bits
// for every CLV, likelihood and derivative (fastpath_test.go and
// masktables_test.go load every tip that way for their reference run),
// which keeps the repo-wide determinism contract (docs/DETERMINISM.md)
// intact.

// Counters returns the kernel's per-rank counters, the table its engine
// adds up for telemetry. Call it between kernel operations: the
// single-site evaluation counts are gathered from the pattern blocks'
// slots.
func (k *Kernel) Counters() telemetry.RankCounters {
	c := k.counts
	for b := range k.siteScr {
		c[telemetry.RankSiteRateTableEvals] += k.siteScr[b].tableEvals
		c[telemetry.RankSiteRateExactEvals] += k.siteScr[b].exactEvals
	}
	return c
}

// probMatricesFor returns the per-category P(t) matrices for branch
// length t from the kernel's P-matrix store (pstore.go), filling a set
// on a miss. The returned slice is read-only for the caller and good
// until the program in flight is finished: a set the program reads is
// not recycled before its Finish.
func (k *Kernel) probMatricesFor(t float64) [][ns * ns]float64 {
	s := &k.pm
	if g, cats := k.par.Generation(), len(k.par.CatRates); g != s.gen || cats != s.cats {
		s.gen = g
		if s.reset(cats) {
			k.counts[telemetry.RankPCacheResets]++
		}
	}
	key := math.Float64bits(t)
	if i := s.find(key); i >= 0 {
		k.counts[telemetry.RankPCacheHits]++
		return s.read(i, true)
	}
	k.counts[telemetry.RankPCacheMisses]++
	i, carved := s.take()
	k.counts[telemetry.RankPSetAllocs] += int64(carved)
	s.insert(i, key)
	m := s.read(i, false)
	k.probMatrices(t, m)
	return m
}

// tipTable returns a tip table of the program's arena sized for len(pm)
// categories (16 ambiguity codes × 4 states per category), filled from
// the matrices pm for the (category, code) pairs the tip operand o is
// read at.
func (k *Kernel) tipTable(pm [][ns * ns]float64, o operand) []float64 {
	tab := k.mem.tabs.take(len(pm) * 16 * ns)
	k.fillTipTable(tab, pm, o.mask, o.catMask)
	return tab
}

// fillTipTable precomputes, for every category c and every ambiguity
// code in c's mask, the P·tipVec product vector the Newview/Evaluate
// inner loops need:
//
//	dst[(c·16+code)·4+x] = Σ_y pm[c][x·4+y] · tipVec[code][y]
//
// c's mask is catMask[c] when catMask is non-nil — a PSR tip, whose sites
// each read their own category's entries alone — and mask otherwise.
// The sum is written as the exact four-term expression the inner-inner
// workers evaluate per site, so reading the table is bit-identical to
// computing the product inline. A PSR set is stored transposed
// (probMatrices), so pm[c][x·4+y] is read at pm[c][y·4+x]: the same
// double. Where the lanes run, laneTipTable fills the whole table in one
// call, lanes over x; the Go loop is its reference.
func (k *Kernel) fillTipTable(dst []float64, pm [][ns * ns]float64, mask uint16, catMask []uint16) {
	if catMask == nil {
		k.counts[telemetry.RankTipTableEntries] += int64(len(pm) * bits.OnesCount16(mask))
	} else {
		catMask = catMask[:len(pm)]
		for _, cm := range catMask {
			k.counts[telemetry.RankTipTableEntries] += int64(bits.OnesCount16(cm))
		}
	}
	if laneMask != 0 {
		laneTipTable(dst[:len(pm)*16*ns], pm, &k.tipVec, mask, catMask, k.psr)
		return
	}
	row, col := ns, 1
	if k.psr {
		row, col = 1, ns
	}
	for c := range pm {
		pc := &pm[c]
		cm := mask
		if catMask != nil {
			cm = catMask[c]
		}
		for m := cm; m != 0; m &= m - 1 {
			code := bits.TrailingZeros16(m)
			v := &k.tipVec[code]
			off := (c*16 + code) * ns
			for x := 0; x < ns; x++ {
				r := x * row
				dst[off+x] = pc[r]*v[0] + pc[r+col]*v[1] + pc[r+2*col]*v[2] + pc[r+3*col]*v[3]
			}
		}
	}
}

// prepTables returns the derivative-preparation tip tables of (op, oq)
// from the program's arena (16 codes × 4 eigenvalues each; no category
// dependence), the p side filled when op is a tip and the q side when oq
// is.
func (k *Kernel) prepTables(op, oq operand) (tabP, tabQ []float64) {
	tabP, tabQ = k.mem.tabs.take(16*ns), k.mem.tabs.take(16*ns)
	if op.tips != nil {
		k.fillPrepTipP(tabP, op.mask)
	}
	if oq.tips != nil {
		k.fillPrepTipQ(tabQ, oq.mask)
	}
	return tabP, tabQ
}

// fillPrepTipP precomputes the p-side sum-table coefficient for every
// ambiguity code in mask: dst[code·4+k] = Σ_x π_x·tipVec[code][x]·U[x·4+k],
// written as the exact expression of the inner-inner sum-table fill.
func (k *Kernel) fillPrepTipP(dst []float64, mask uint16) {
	k.counts[telemetry.RankTipTableEntries] += int64(bits.OnesCount16(mask))
	e := k.par.Eigen
	freqs := &k.par.Freqs
	for m := mask; m != 0; m &= m - 1 {
		code := bits.TrailingZeros16(m)
		vp := &k.tipVec[code]
		off := code * ns
		for kk := 0; kk < ns; kk++ {
			dst[off+kk] = freqs[0]*vp[0]*e.U[0*ns+kk] + freqs[1]*vp[1]*e.U[1*ns+kk] +
				freqs[2]*vp[2]*e.U[2*ns+kk] + freqs[3]*vp[3]*e.U[3*ns+kk]
		}
	}
}

// fillPrepTipQ precomputes the q-side sum-table coefficient for every
// ambiguity code in mask: dst[code·4+k] = Σ_y U⁻¹[k·4+y]·tipVec[code][y].
func (k *Kernel) fillPrepTipQ(dst []float64, mask uint16) {
	k.counts[telemetry.RankTipTableEntries] += int64(bits.OnesCount16(mask))
	e := k.par.Eigen
	for m := mask; m != 0; m &= m - 1 {
		code := bits.TrailingZeros16(m)
		vq := &k.tipVec[code]
		off := code * ns
		for kk := 0; kk < ns; kk++ {
			dst[off+kk] = e.UInv[kk*ns]*vq[0] + e.UInv[kk*ns+1]*vq[1] +
				e.UInv[kk*ns+2]*vq[2] + e.UInv[kk*ns+3]*vq[3]
		}
	}
}
