package likelihood

import "math"

// PoisonTipTables sizes every tip lookup table for the kernel's current
// category count and overwrites all of their entries — tip tables, pair
// table and its scale counts, prep tables — with NaN (scale counts with a
// huge value). The next fill repairs only the entries its masks cover,
// so a kernel that reads any other entry produces a visibly wrong result.
func (k *Kernel) PoisonTipTables() {
	cats := len(k.par.CatRates)
	p, q := k.prepTabScratch()
	for _, tab := range [][]float64{k.tipTabScratch(0, cats), k.tipTabScratch(1, cats), k.pairTabScratch(cats), p, q} {
		for i := range tab {
			tab[i] = math.NaN()
		}
	}
	for i := range k.pairScaleScr {
		k.pairScaleScr[i] = 1 << 20
	}
}

// TipMask returns the state mask of a taxon's row of the kernel's slice.
func (k *Kernel) TipMask(taxon int) uint16 { return k.tipMask[taxon] }

// ShrinkSites multiplies every entry the CLV or outer vector r holds at
// the given sites by f, so a test can make a column small enough for the
// next combine over it to rescale.
func (k *Kernel) ShrinkSites(r GradRef, sites []int, f float64) {
	clv := k.gradOperand(r).clv
	for p := 0; p < len(clv)/k.nPat; p++ {
		for _, i := range sites {
			clv[p*k.nPat+i] *= f
		}
	}
}

// SiteScaleCount returns how many scaling events the last single-site
// evaluation of site's pattern block accumulated over the whole tree.
func (k *Kernel) SiteScaleCount(site int) int32 {
	var n int32
	for _, c := range k.siteScratchOf(site).scale {
		n = max(n, c)
	}
	return n
}
