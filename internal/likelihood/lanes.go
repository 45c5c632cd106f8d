package likelihood

import (
	"math"

	"repro/internal/model"
)

// Vector lanes (docs/PERFORMANCE.md §6 "Vector lanes", docs/DETERMINISM.md
// §8). On a CPU with AVX2 the block workers that multiply a P matrix into a
// vector, and the PSR sum-table workers, run in AVX2 routines
// (lanes_amd64.s, lanes_psr_amd64.s), each value with the same operands in
// the same order as the Go expression it replaces, without FMA, with the
// Go scale predicate, and with every reduction over sites left in Go — so
// a value has the same bits whichever of the two computes it. The Go loops
// are the reference and the path of every other CPU and architecture
// (lanes_other.go).
//
//   - Γ: site lanes. The Newview inner-inner and tip-inner, the evaluation
//     (inner or tip near operand, tip far operand) and both insertion-score
//     workers hand the first w & laneMask sites of each category's site
//     loop to a routine that computes four sites per instruction — one
//     matrix serves them all — and their Go loop continues with the tail
//     of up to three sites.
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
//     sites in site order; a Go loop does the tail of up to three sites.
//   - Logs and exponentials: the per-site logs of every evaluation and
//     insertion-score block go four at a time through laneLog, a
//     transcription of math.Log's amd64 code with its bits (logSites); the
//     exponentials of P matrices and derivative evaluations go through
//     laneExp, a transcription of the FMA arm of math.Exp's amd64 code,
//     on the CPUs where math.Exp takes that arm (expAll).
//
// The Γ sum-table and derivative workers stay scalar: their table is
// pattern-major with a category index, and neither lane shape fits it
// without a re-layout. So do the Γ tip-tip copies.

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
// operation's sites and, if its worker has lanes, the sites they compute:
// under Γ w & laneMask of every block, which sums to nPat & laneMask
// because every block but the last is a multiple of 4 wide; under PSR all
// of them.
func (k *Kernel) countSites(lanes bool) {
	k.fp.Sites += int64(k.nPat)
	switch {
	case !lanes || laneMask == 0:
	case k.par.Het == model.Gamma:
		k.fp.LaneSites += int64(k.nPat & laneMask)
	default:
		k.fp.LaneSites += int64(k.nPat)
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
