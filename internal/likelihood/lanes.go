package likelihood

import "math"

// Vector lanes (docs/PERFORMANCE.md §6 "Vector lanes", docs/DETERMINISM.md
// §8). On a CPU with AVX2 the block workers that multiply a P matrix into a
// vector, the sum-table workers of both models, and the set-up tables —
// P sets and tip tables — run in AVX2 routines (lanes_amd64.s,
// lanes_psr_amd64.s, lanes_table_amd64.s), each value with the same
// operands in the same order as the Go expression it replaces, without
// FMA, with the Go scale predicate, and with every reduction over sites
// left in Go — so a value has the same bits whichever of the two computes
// it. The Go loops are the reference and the path of every other CPU and
// architecture (lanes_other.go).
//
//   - Γ: site lanes. The Newview, evaluation and insertion-score workers
//     hand the first w & laneMask sites of each category's site loop to a
//     routine that computes four sites per instruction — one matrix serves
//     them all — and their Go loop continues with the tail of up to three
//     sites. One routine per worker serves every operand shape: a flag per
//     side says whether its factors are the rows of its tip table,
//     gathered and transposed, or the dot products of its planes — a
//     cherry is the case of two tips.
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

// laneMask is ^3 when the lanes run and 0 when they do not: a Γ block of w
// sites computes its first w & laneMask in lanes, a PSR block all of them
// when laneMask != 0. Set once, before any kernel runs; tests switch it
// between programs (export_test.go).
var laneMask = laneMaskFor(true)

// laneMaskFor returns the laneMask that runs the lanes if on and the CPU
// has them.
func laneMaskFor(on bool) int {
	if on && haveLanes {
		return ^3
	}
	return 0
}

// countSites counts a staged Newview, evaluation or insertion-score
// operation's sites and the sites its lanes compute: under Γ w & laneMask
// of every block, which sums to nPat & laneMask because every block but
// the last is a multiple of 4 wide; under PSR all of them.
func (k *Kernel) countSites() {
	k.fp.Sites += int64(k.nPat)
	switch {
	case laneMask == 0:
	case k.psr:
		k.fp.LaneSites += int64(k.nPat)
	default:
		k.fp.LaneSites += int64(k.nPat & laneMask)
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
