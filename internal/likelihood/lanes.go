package likelihood

import (
	"math"

	"repro/internal/msa"
	"repro/internal/telemetry"
)

// Vector lanes (docs/PERFORMANCE.md §6 "Vector lanes" and "Eight lanes",
// docs/DETERMINISM.md §8). On a CPU with AVX2 the block workers that
// multiply a P matrix into a vector, the sum-table workers of both models, and the set-up tables —
// P sets and tip tables — run in AVX2 routines (lanes_amd64.s,
// lanes_psr_amd64.s, lanes_table_amd64.s), each value with the same
// operands in the same order as the Go expression it replaces, without
// FMA, with the Go scale predicate, and with every reduction over sites
// left in Go — so a value has the same bits whichever of the two computes
// it. The Go loops are the reference and the path of every other CPU and
// architecture (lanes_other.go).
//
//   - Γ: site lanes. The Newview, evaluation and candidate workers hand
//     the first gammaLaneSites(w) sites of their site loop — the
//     evaluation one category's, the Newview and the candidate the whole
//     block's — to a routine that computes several sites per instruction
//     — one matrix serves them all — and their Go loop continues with the
//     rest. The Newview routine also takes its sites' scaling decision
//     and writes their scale counts; the candidate routine forms the
//     near vector of its pre-order step, scales it, stores it only when
//     asked, and scores it (insertion.go).
//     At width 4 (AVX2, lanes_amd64.s) that is w &^ 3 sites, four per
//     instruction, and the Go loop does the tail of up to three; at width
//     8 (AVX-512, lanes_avx512_amd64.s) it is every site, eight per
//     instruction, the last 1–7 under a lane mask, and the Go loop does
//     none. One routine per worker and width serves every operand shape:
//     a flag per side says whether its factors are entries of its tip
//     table — rows gathered and transposed at width 4, one register
//     permute per state of a table held in registers at width 8 — or the
//     dot products of its planes; a cherry is the case of two tips.
//   - Γ sum tables: the table is plane-major like a Γ CLV, so both workers
//     stream stride-1 over sites in site lanes. The fill (every operand
//     shape, one routine with tip flags) takes π_x·v_x once per group and
//     dots it with a row of U transposed, the q factor with a row of U⁻¹;
//     a tip side is its prep-table rows, gathered and transposed. The
//     derivative extends each lane's f, f′, f″ over the categories'
//     planes in order, and the fold is the PSR derivative's (below).
//   - PSR: state lanes. Each site picks its own matrix, so a routine holds
//     one site at a time, lane x being state x, and builds row x of P·v
//     column by column from the broadcast v_y: the matrices are stored
//     transposed (Kernel.probMatrices). Newview (every operand shape),
//     evaluation, the insertion table and score, and the single-site
//     recursion of the rate scan run every site in lanes: no tail. A sum
//     over states is taken horizontally from +0.0, lane 0 first.
//   - PSR sum tables: the table is pattern-major ([pattern][eig]), so a
//     site's row is one vector. The fill (every operand shape) runs in
//     eigen lanes, lane k being eigen index k: the p factor broadcasts
//     each π_x·v_x across row x of U, the q factor is the state lanes'
//     column dot over the transpose of U⁻¹. The derivative runs in site
//     lanes: four sites' rows, and the ex and λ rows of their categories,
//     are transposed in registers, each lane computes its site's weighted
//     terms and a validity bit (f > 0), and Go sums the terms of the valid
//     sites in site order (foldTerms); a Go loop does the tail of up to
//     three sites.
//   - Set-up tables: pSet.flush assembles a batch of P matrices in one
//     laneAssemble call — row-major (Γ) in lanes over a row's columns,
//     transposed (PSR, the site-rate tables) in lanes over a column's
//     rows from model.Eigen's transposes — clamped by VMAXPD/VMINPD with
//     the value as second source, which passes NaN and −0 as Go's
//     comparisons do. fillTipTable fills a whole tip table in one
//     laneTipTable call, lanes over states: per category a PSR matrix's
//     rows are P's columns, a Γ matrix is transposed in registers, and
//     each code of the category's mask is four broadcasts of its tip
//     vector.
//   - Logs and exponentials: the per-site logs of every evaluation and
//     insertion-score block go four at a time through laneLog, a
//     transcription of math.Log's amd64 code with its bits (logSites); the
//     exponentials of P matrices and derivative evaluations go through
//     laneExp, a transcription of the FMA arm of math.Exp's amd64 code,
//     on the CPUs where math.Exp takes that arm (expAll).

// laneChunk is the number of sites a derivative worker hands its lane
// routine per call: the routine writes one siteTerms per four sites into a
// stack array of laneChunk/4.
const laneChunk = 64

// siteTerms are the per-site outputs of a derivative lane routine
// (laneGammaDerivatives, lanePSRDerivatives) for a group of four sites:
// each site's w·ratio and w·(f″/f − ratio²), and bit j of ok set when site
// j's f > 0.
type siteTerms struct {
	d1, d2 [4]float64
	ok     uint8
}

// foldTerms adds the terms of the first n sites of groups (n a multiple of
// 4) to (d1, d2) in site order — group by group, lane 0 first — over the
// sites each group marks valid: the fold of the derivative workers' Go
// loop, which skips a site whose f is not > 0.
func foldTerms(groups []siteTerms, n int, d1, d2 float64) (float64, float64) {
	for g := range groups {
		if 4*g >= n {
			break
		}
		t := &groups[g]
		for j := 0; j < 4; j++ {
			if t.ok>>j&1 != 0 {
				d1 += t.d1[j]
				d2 += t.d2[j]
			}
		}
	}
	return d1, d2
}

// laneWidth is the width of the Γ site lanes: 8 where the CPU runs
// AVX-512 (haveLanes8), 4 where it runs AVX2 alone (haveLanes), 0 where
// the Go loops compute every site. laneMask is ^3 whenever the lanes run
// and 0 when they do not: the four-wide routines — the Γ sum tables, the
// PSR state lanes, the log and the set-up tables, which run at 4 on every
// width — and, at width 4, the Γ site lanes test it. Both are set once,
// from the CPU, before any kernel runs; tests switch them between
// programs (export_test.go).
var laneWidth, laneMask = lanesFor(8)

// LaneWidth returns the width the Γ site lanes run at: 8, 4 or 0.
func LaneWidth() int { return laneWidth }

// lanesFor returns the widest of 8, 4 and 0 that is at most w and that the
// CPU runs, and the laneMask that goes with it.
func lanesFor(w int) (width, mask int) {
	switch {
	case w >= 8 && haveLanes8:
		return 8, ^3
	case w >= 4 && haveLanes:
		return 4, ^3
	}
	return 0, 0
}

// gammaLaneSites is how many of a Γ block's w sites its Newview,
// evaluation and candidate routines compute in lanes: all of them at
// width 8 (the last 1–7 under a mask), w &^ 3 at width 4 (the Go loop does
// the tail of up to three), none at width 0. It is w under a mask — all
// ones at width 8, -(8>>3) = -1 — so the compiler still sees 0 <= result
// <= w and the Go loops that continue from it keep their windows' bounds
// checks out.
func gammaLaneSites(w int) int {
	return w & (laneMask | -(laneWidth >> 3))
}

// laneSide returns what a Γ lane routine reads of operand o from site lo
// on: its planes when it is inner, its tip codes when it is a tip.
func laneSide(o operand, lo int) ([]float64, []msa.State) {
	if o.tips != nil {
		return nil, o.tips[lo:]
	}
	return o.clv[lo:], nil
}

// gammaSet is a Γ matrix set as the lane routines take it.
func gammaSet(pm [][ns * ns]float64) *[gammaCats][ns * ns]float64 {
	return (*[gammaCats][ns * ns]float64)(pm)
}

// newviewLanes computes the first n sites of a Γ Newview block from site
// lo, all four categories, in the site lanes of the current width
// (laneNewview8 for any n, laneNewview for n a multiple of 4 —
// gammaLaneSites): it stores the unscaled values into dclv, ORs each
// site's scale test into noScale, writes ds = sa + sb plus one at a site
// that rescales, and reports whether one does.
func newviewLanes(dclv []float64, noScale []bool, sa, sb, ds []int32, oa, ob operand, tabA, tabB []float64, pa, pb [][ns * ns]float64, stride, lo, n int) bool {
	a, tipsA := laneSide(oa, lo)
	b, tipsB := laneSide(ob, lo)
	if laneWidth == 8 {
		return laneNewview8(dclv[lo:], a, tipsA, tabA, oa.tips != nil, b, tipsB, tabB, ob.tips != nil, stride, gammaSet(pa), gammaSet(pb), noScale, sa, sb, ds, n)
	}
	return laneNewview(dclv[lo:], a, tipsA, tabA, oa.tips != nil, b, tipsB, tabB, ob.tips != nil, stride, gammaSet(pa), gammaSet(pb), noScale, sa, sb, ds, n)
}

// candidateLanes computes the first n sites of a Γ candidate block from
// site lo (scoreCandidateGammaSites) in the site lanes of the current
// width: per site group the near vector of the step in ra, its scaling,
// its entries and scale counts into the step's slot, then the score
// against the far operand and the insertion table ins — each site's
// likelihood added to site, the inserted vertex's scale test ORed into
// noScale.
func candidateLanes(site []float64, noScale []bool, ra *runArgs, freqs *[ns]float64, ins []float64, stride, lo, n int) {
	a, tipsA := laneSide(ra.oa, lo)
	b, tipsB := laneSide(ra.ob, lo)
	f, tipsF := laneSide(ra.far, lo)
	w := len(site)
	sa, sb := scaleWindow(ra.oa.scale, lo, w), scaleWindow(ra.ob.scale, lo, w)
	tipA, tipB, tipF := ra.oa.tips != nil, ra.ob.tips != nil, ra.far.tips != nil
	pa, pb, ph := gammaSet(ra.pa), gammaSet(ra.pb), gammaSet(ra.ph)
	nds := ra.dscale[lo:]
	if laneWidth == 8 {
		laneCandidate8(ra.dclv[lo:], nds, a, tipsA, ra.tabA, tipA, b, tipsB, ra.tabB, tipB, sa, sb, f, tipsF, ra.tabF, tipF, ins[lo:], stride, pa, pb, ph, freqs, ra.catW, site, noScale, n)
	} else {
		laneCandidate(ra.dclv[lo:], nds, a, tipsA, ra.tabA, tipA, b, tipsB, ra.tabB, tipB, sa, sb, f, tipsF, ra.tabF, tipF, ins[lo:], stride, pa, pb, ph, freqs, ra.catW, site, noScale, n)
	}
}

// evaluateLanes computes the first n sites of one category of a Γ
// evaluation in the site lanes of the current width: laneEvaluate8 for
// any n, laneEvaluate for n a multiple of 4 (gammaLaneSites).
func evaluateLanes(site, p []float64, tipsP []msa.State, tipVec *[16][ns]float64, tipP bool, q []float64, tipsQ []msa.State, tab []float64, tipQ bool, toff, stride int, pm *[ns * ns]float64, f0, f1, f2, f3, catW float64, n int) {
	if laneWidth == 8 {
		laneEvaluate8(site, p, tipsP, tipVec, tipP, q, tipsQ, tab, tipQ, toff, stride, pm, f0, f1, f2, f3, catW, n)
	} else {
		laneEvaluate(site, p, tipsP, tipVec, tipP, q, tipsQ, tab, tipQ, toff, stride, pm, f0, f1, f2, f3, catW, n)
	}
}

// countSites counts a staged Newview, evaluation or insertion-score
// operation's sites and the sites its lanes compute: under Γ
// gammaLaneSites of every block, which sums to gammaLaneSites(nPat)
// because every block but the last is a multiple of 8 wide; under PSR all
// of them.
func (k *Kernel) countSites() {
	k.counts[telemetry.RankSites] += int64(k.nPat)
	switch {
	case laneMask == 0:
	case k.psr:
		k.counts[telemetry.RankLaneSites] += int64(k.nPat)
	default:
		k.counts[telemetry.RankLaneSites] += int64(gammaLaneSites(k.nPat))
	}
}

// expAll replaces every value of v by its exponential: groups of four in
// laneExp where it runs (haveExpLanes), a group with a lane outside
// laneExp's range and the tail of up to three values by math.Exp, whose
// bits laneExp has.
func expAll(v []float64) {
	n := 0
	if laneMask != 0 && haveExpLanes {
		n = len(v) &^ 3
	}
	i := 0
	for i < n {
		i += laneExp(v[i:n])
		if i < n {
			for end := i + 4; i < end; i++ {
				v[i] = math.Exp(v[i])
			}
		}
	}
	for ; i < len(v); i++ {
		v[i] = math.Exp(v[i])
	}
}

// logSites replaces every per-site likelihood of site by its log: the
// first len(site) & laneMask four at a time in lanes, the rest by
// math.Log, whose bits laneLog has.
func logSites(site []float64) {
	nl := len(site) & laneMask
	laneLog(site, nl)
	for j := nl; j < len(site); j++ {
		site[j] = math.Log(site[j])
	}
}
