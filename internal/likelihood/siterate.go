package likelihood

import (
	"math"

	"repro/internal/model"
	"repro/internal/threadpool"
)

// Single-site evaluation under a trial rate: the inner loop of per-site
// rate optimization under the PSR model (the analogue of RAxML's
// evaluatePartialGeneric). A site's log likelihood at rate r is the
// pruning recursion for that one site with P(t·r) on every edge. The
// matrices are a function of (edge, rate) and the vectors a function of
// the site, so the matrices are never built inside a loop over sites:
// the rate search scans rates shared by all sites (model.SiteRateGrid)
// and reads P from a SiteRateTable filled once per schedule; only its
// acceptance test needs off-grid rates, and EvaluateSiteAtRate serves
// those by filling a one-rate table and running the same recursion. Like
// every PSR matrix the tables' are stored transposed, and on a CPU with
// AVX2 the recursion runs in state lanes (lanes.go), its log in Go.

// SiteRateTable holds P(t·r) of every edge of one schedule at the rates
// of model.SiteRateGrid: per rate, the two operand matrices of each step
// in schedule order and the root edge's matrix last. The caller owns it and may
// refill it for another kernel or schedule; between a fill and the next
// it is read-only, so the sites of one kernel may share it across
// threads.
type SiteRateTable struct {
	pm     [][ns * ns]float64
	stride int // matrices per rate: 2·len(steps)+1
}

// siteScratch is one pattern block's working set for single-site
// evaluations — the site's vector and scale count per inner slot, the
// one-rate table of the exact-rate form — and the block's share of the
// evaluation counters. Sites of different blocks may be evaluated
// concurrently, sites of one block may not; the padding keeps two
// blocks' counters off one cache line.
type siteScratch struct {
	vec   [][ns]float64
	scale []int32
	pm    [][ns * ns]float64

	tableEvals, exactEvals int64
	_                      [6]int64
}

// newSiteScratch provisions the per-block single-site working sets.
func newSiteScratch(nPat, nInner int) []siteScratch {
	scr := make([]siteScratch, threadpool.NumBlocks(nPat))
	for b := range scr {
		scr[b].vec = make([][ns]float64, nInner)
		scr[b].scale = make([]int32, nInner)
		scr[b].pm = make([][ns * ns]float64, 2*nInner+1)
	}
	return scr
}

// fillSitePMatrices writes P(t·rate) for the operand edges of every step
// and for the root edge into pm, which holds 2·len(steps)+1 matrices,
// transposed like every PSR matrix (Kernel.probMatrices).
func (k *Kernel) fillSitePMatrices(pm [][ns * ns]float64, steps []Step, rootT, rate float64) {
	var set pSet
	set.start(k.par.Eigen, pm[:2*len(steps)+1], true)
	for i := range steps {
		set.add(steps[i].TA, rate)
		set.add(steps[i].TB, rate)
	}
	set.add(rootT, rate)
	set.flush()
}

// FillSiteRateTable fills tab for the schedule steps ending at a root
// edge of length rootT, at grid rates gLo..gHi (the entries of the other
// rates are left as they were and must not be read), under the kernel's
// current eigensystem. Each entry is what Eigen.ProbMatrix returns for
// its (t, rate), so a table evaluation at grid rate g has the bits of
// EvaluateSiteAtRate at that rate.
func (k *Kernel) FillSiteRateTable(tab *SiteRateTable, steps []Step, rootT float64, gLo, gHi int) {
	tab.stride = 2*len(steps) + 1
	need := tab.stride * model.SiteRateGridSize
	if cap(tab.pm) < need {
		tab.pm = make([][ns * ns]float64, need)
	}
	tab.pm = tab.pm[:need]
	for g := gLo; g <= gHi; g++ {
		k.fillSitePMatrices(tab.pm[g*tab.stride:(g+1)*tab.stride], steps, rootT, model.SiteRateGrid[g])
	}
}

// EvaluateSiteFromTable returns the log likelihood of local pattern site
// at grid rate g, along the schedule and root edge (p, q) tab was filled
// for. The kernel's stored CLVs are not modified.
func (k *Kernel) EvaluateSiteFromTable(tab *SiteRateTable, g int, steps []Step, p, q Ref, site int) float64 {
	scr := k.siteScratchOf(site)
	scr.tableEvals++
	return k.siteLnL(scr, tab.pm[g*tab.stride:(g+1)*tab.stride], steps, p, q, site)
}

// EvaluateSiteAtRate computes the exact log likelihood of a single local
// pattern under a trial evolutionary rate, by running the pruning
// recursion for just that site along the given traversal (ending at the
// virtual root edge (p, q) of length rootT).
//
// The traversal must compute every inner vertex it or the root edge
// reads before reading it (a full post-order traversal always does), in
// at most one step per inner slot: the scratch holds that many matrix
// pairs. Every schedule the rate scan passes is one of a descriptor, and
// traversal.Descriptor.Validate admits no longer one.
// The kernel's stored CLVs are not modified, and the working set is the
// scratch of the site's pattern block (threadpool.BlockSize): calls for
// sites of different blocks may run concurrently, calls within one block
// may not.
func (k *Kernel) EvaluateSiteAtRate(steps []Step, p, q Ref, rootT float64, site int, rate float64) float64 {
	scr := k.siteScratchOf(site)
	scr.exactEvals++
	k.fillSitePMatrices(scr.pm, steps, rootT, rate)
	return k.siteLnL(scr, scr.pm, steps, p, q, site)
}

// siteScratchOf returns the working set of site's pattern block. site is
// a local pattern: the rate scan asks only for the sites of its own
// kernel's pattern blocks.
func (k *Kernel) siteScratchOf(site int) *siteScratch {
	return &k.siteScr[site/threadpool.BlockSize]
}

// siteOperand returns the site's vector and scale count at r.
func (k *Kernel) siteOperand(scr *siteScratch, r Ref, site int) (*[ns]float64, int32) {
	if r.Kind == Tip {
		return &k.tipVec[k.data.Tips[r.Idx][site]], 0
	}
	return &scr.vec[r.Idx], scr.scale[r.Idx]
}

// siteLnL is the one site recursion: it runs steps for local pattern
// site with step i's operand matrices at pm[2i] and pm[2i+1] and the
// root edge's at pm[2·len(steps)], scaling as Newview does. The matrices
// are transposed (fillSitePMatrices). On a CPU with AVX2 the whole
// recursion runs in state lanes (laneSiteLnL, lanes.go) and only the log
// is taken here.
func (k *Kernel) siteLnL(scr *siteScratch, pm [][ns * ns]float64, steps []Step, p, q Ref, site int) float64 {
	pm = pm[:2*len(steps)+1]
	if laneMask != 0 {
		l, sc := laneSiteLnL(scr.vec, scr.scale, steps, k.data.Tips, site, &k.tipVec, pm, p, q, &k.par.Freqs)
		return math.Log(l) + float64(sc)*LogScaleStep
	}
	for i := range steps {
		s := &steps[i]
		va, sa := k.siteOperand(scr, s.A, site)
		vb, sb := k.siteOperand(scr, s.B, site)
		pa, pb := &pm[2*i], &pm[2*i+1]
		var out [ns]float64
		needScale := true
		for x := 0; x < ns; x++ {
			la := pa[x]*va[0] + pa[ns+x]*va[1] + pa[2*ns+x]*va[2] + pa[3*ns+x]*va[3]
			lb := pb[x]*vb[0] + pb[ns+x]*vb[1] + pb[2*ns+x]*vb[2] + pb[3*ns+x]*vb[3]
			o := la * lb
			out[x] = o
			if o >= ScaleThreshold || o != o {
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
		scr.vec[s.Dst.Idx] = out
		scr.scale[s.Dst.Idx] = sc
	}
	vp, sp := k.siteOperand(scr, p, site)
	vq, sq := k.siteOperand(scr, q, site)
	pr := &pm[2*len(steps)]
	site0 := 0.0
	for x := 0; x < ns; x++ {
		right := pr[x]*vq[0] + pr[ns+x]*vq[1] + pr[2*ns+x]*vq[2] + pr[3*ns+x]*vq[3]
		site0 += k.par.Freqs[x] * vp[x] * right
	}
	return math.Log(site0) + float64(sp+sq)*LogScaleStep
}
