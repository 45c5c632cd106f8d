package likelihood

// Vector lanes (docs/PERFORMANCE.md §6 "Vector lanes", docs/DETERMINISM.md
// §8). The Γ plane workers — Newview inner-inner and tip-inner, evaluation
// with an inner or tip near operand and with a tip far operand, and both
// insertion scores — hand the first w & laneMask sites of each category's
// site loop to an AVX2 routine (lanes_amd64.s) that computes four sites per
// instruction, and their own Go loop continues from there. The Go loop is
// the single statement of each expression: it computes the tail of up to
// three sites, and every site on CPUs without AVX2 and on other
// architectures (lanes_other.go). A lane evaluates the Go expression of its
// site with the same operands in the same order, without FMA, its scale test
// is the Go predicate, and every reduction over sites stays in Go, so a site
// has the same bits whichever of the two computes it.
//
// PSR workers stay scalar: each site picks its own matrix, so a lane has no
// matrix all four sites share. So do the sum-table and derivative workers,
// whose table is pattern-major, and the tip-tip copies.

// laneMask is ^3 when the lanes run and 0 when they do not: a block of w
// sites computes its first w & laneMask in lanes. Set once, before any
// kernel runs; tests switch it between programs (export_test.go).
var laneMask = laneMaskFor(true)

// laneMaskFor returns the laneMask that runs the lanes if on and the CPU
// has them.
func laneMaskFor(on bool) int {
	if on && haveLanes {
		return ^3
	}
	return 0
}

// countGammaSites counts a staged Γ operation's sites and, if its worker
// has lanes, the sites they compute: w & laneMask of every block, which
// sums to nPat & laneMask because every block but the last is a multiple
// of 4 wide.
func (k *Kernel) countGammaSites(lanes bool) {
	k.fp.GammaSites += int64(k.nPat)
	if lanes {
		k.fp.LaneSites += int64(k.nPat & laneMask)
	}
}
