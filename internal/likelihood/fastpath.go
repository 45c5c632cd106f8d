package likelihood

import (
	"math"
	"math/bits"

	"repro/internal/model"
)

// This file holds the kernel fast-path layer (docs/PERFORMANCE.md): the
// keyed P-matrix cache and the tip-state lookup tables that specialize
// the three kernels when an operand is a tip. Neither changes a bit:
//
//   - a P-cache hit returns the exact doubles the miss path computed for
//     the same (branch length, parameter generation) key, and
//   - every tip-table entry is computed by the very expression the
//     inner-inner worker evaluates per site on a CLV holding the tip's
//     0/1 vector, so a table read yields the same bits as the computation
//     it replaces. Only the entries a kernel can read are produced: a
//     table is indexed by the states of the tip operand's own row of this
//     slice, so each fill walks the row's state mask (Kernel.tipMasks) and
//     leaves every other code's entry untouched — typically 4–5 of 16
//     codes, ~20 of 256 code pairs. A PSR site reads only its own
//     category's row of a tip table, so a PSR fill walks one mask per
//     category (rowMasks.catMask) and skips the (category, code) pairs
//     none of the row's sites reads.
//
// So a tip and the same tip loaded into an inner slot give the same bits
// for every CLV, likelihood and derivative (fastpath_test.go and
// masktables_test.go load every tip that way for their reference run),
// which keeps the repo-wide determinism contract (docs/DETERMINISM.md)
// intact.

// maxPCacheEntries bounds the per-kernel P-matrix cache. When the bound
// is reached the cache simply stops inserting (no eviction): a
// deterministic policy whose behavior cannot depend on iteration order.
// Matrices it does not keep are lent to the program that asked for them.
// 1024 entries × up to 25 categories × 16 doubles is a few MB worst
// case, and the cache resets on every parameter-generation change.
const maxPCacheEntries = 1024

// FastPathStats counts tip-table and P-matrix cache activity. All
// counters are out-of-band: they never influence a computed value.
type FastPathStats struct {
	// NewviewTipTip counts Newview calls with two tip operands, the fills
	// PairTableEntries is measured against.
	NewviewTipTip int64
	// PCacheHits / PCacheMisses / PCacheResets count P-matrix cache
	// activity; a reset drops the whole cache after a parameter change.
	PCacheHits, PCacheMisses, PCacheResets int64
	// TipTableEntries counts the entries the tip-table fills produced, one
	// per (category, code) pair (of 16 per category and fill), plus the
	// codes the prep-table fills produced entries for (of 16 per fill; a
	// prep table has no category); PairTableEntries the code pairs the
	// tip-tip pair-table fills produced (of 256 per fill; one fill per Γ
	// NewviewTipTip).
	TipTableEntries, PairTableEntries int64
	// InsertionRescales counts the sites ScoreInsertion scored over a
	// rescaled inserted column — the ones Newview would have rescaled.
	InsertionRescales int64
	// SiteRateTableEvals / SiteRateExactEvals count single-site
	// evaluations: those that read their P matrices from a SiteRateTable
	// and those that built them for an off-grid rate
	// (EvaluateSiteAtRate) — what the PSR rate scan costs per site.
	SiteRateTableEvals, SiteRateExactEvals int64
	// Sites counts the sites of the Newview, evaluation and
	// insertion-score operations staged, both models, one per site and
	// operation; LaneSites those of them the operations compute in vector
	// lanes (lanes.go) — every one under PSR, 0 on a CPU without AVX2.
	Sites, LaneSites int64
}

// FastPath returns the kernel's fast-path and cache counters. Call it
// between kernel operations: the single-site evaluation counts are
// gathered from the pattern blocks' slots.
func (k *Kernel) FastPath() FastPathStats {
	s := k.fp
	for b := range k.siteScr {
		s.SiteRateTableEvals += k.siteScr[b].tableEvals
		s.SiteRateExactEvals += k.siteScr[b].exactEvals
	}
	return s
}

// takePMatrices returns an idle P-matrix set sized for the active
// category count, contents unspecified, allocating only when no idle set
// is large enough.
func (k *Kernel) takePMatrices() [][ns * ns]float64 {
	need := len(k.par.CatRates)
	for n := len(k.pmFree); n > 0; n = len(k.pmFree) {
		m := k.pmFree[n-1]
		k.pmFree = k.pmFree[:n-1]
		if cap(m) >= need {
			return m[:need]
		}
		// Sized for fewer categories than the model has now: let it go.
	}
	return make([][ns * ns]float64, need)
}

// dropPCache empties the P-matrix cache, keeping its matrix sets for the
// next fills: a model probe misses on every branch length of the tree,
// and would otherwise allocate a set per miss.
func (k *Kernel) dropPCache() {
	for _, m := range k.pcache {
		k.pmFree = append(k.pmFree, m)
	}
	clear(k.pcache)
}

// probMatricesFor returns the per-category P(t) matrices for branch
// length t, consulting the cache first. The returned slice is
// read-only for the caller and good until the program in flight is
// finished: it is either cache-owned (the cache resets only between
// programs) or lent to the program and taken back by Finish.
func (k *Kernel) probMatricesFor(t float64) [][ns * ns]float64 {
	if g := k.par.Generation(); g != k.pcGen {
		k.pcGen = g
		if len(k.pcache) > 0 {
			k.dropPCache()
			k.fp.PCacheResets++
		}
	}
	if m, ok := k.pcache[math.Float64bits(t)]; ok {
		k.fp.PCacheHits++
		return m
	}
	k.fp.PCacheMisses++
	m := k.takePMatrices()
	k.probMatrices(t, m)
	if len(k.pcache) < maxPCacheEntries {
		if k.pcache == nil {
			k.pcache = make(map[uint64][][ns * ns]float64)
		}
		k.pcache[math.Float64bits(t)] = m
	} else {
		k.pmLent = append(k.pmLent, m)
	}
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
// double.
func (k *Kernel) fillTipTable(dst []float64, pm [][ns * ns]float64, mask uint16, catMask []uint16) {
	row, col := ns, 1
	if k.par.Het == model.PSR {
		row, col = 1, ns
	}
	for c := range pm {
		pc := &pm[c]
		cm := mask
		if catMask != nil {
			cm = catMask[c]
		}
		k.fp.TipTableEntries += int64(bits.OnesCount16(cm))
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

// fillPairTable composes two tip tables into the full CLV column a
// tip-tip site gets for every code pair (ca ∈ maskA, cb ∈ maskB), scaling
// decision included:
//
//	dst[((ca·16+cb)·C + c)·4+x] = tabA[(c·16+ca)·4+x] · tabB[(c·16+cb)·4+x]
//
// followed by the inner-inner worker's exact scaling test and (if
// triggered) the exact ·ScaleFactor pass over the pair's column, with the
// resulting scale count recorded in dsc[ca·16+cb]. A tip-tip site's CLV
// values and scale count depend only on its code pair, so the per-site
// work collapses to a 4·C-double copy plus one int32 store — every double
// having been produced by the same operations, on the same operands, in
// the same order as the inner-inner worker.
func (k *Kernel) fillPairTable(dst []float64, dsc *[256]int32, tabA, tabB []float64, cats int, maskA, maskB uint16) {
	k.fp.PairTableEntries += int64(bits.OnesCount16(maskA) * bits.OnesCount16(maskB))
	for ma := maskA; ma != 0; ma &= ma - 1 {
		ca := bits.TrailingZeros16(ma)
		for mb := maskB; mb != 0; mb &= mb - 1 {
			cb := bits.TrailingZeros16(mb)
			poff := (ca*16 + cb) * cats * ns
			needScale := true
			for c := 0; c < cats; c++ {
				aoff := (c*16 + ca) * ns
				boff := (c*16 + cb) * ns
				for x := 0; x < ns; x++ {
					v := tabA[aoff+x] * tabB[boff+x]
					dst[poff+c*ns+x] = v
					if v >= ScaleThreshold || v != v {
						needScale = false
					}
				}
			}
			var sc int32
			if needScale {
				for j := poff; j < poff+cats*ns; j++ {
					dst[j] *= ScaleFactor
				}
				sc = 1
			}
			dsc[ca*16+cb] = sc
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
	k.fp.TipTableEntries += int64(bits.OnesCount16(mask))
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
	k.fp.TipTableEntries += int64(bits.OnesCount16(mask))
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
