package likelihood

import "repro/internal/msa"

// The AVX2 routines of lanes_amd64.s and the CPU check that enables them.
// Each routine's comment there says what it computes; lanes.go says how the
// workers call them.

// laneThresh is ScaleThreshold in all four lanes: the scale test's
// right-hand operand. laneFlags[m] holds, for the 4-bit mask m of a
// group's scale test (bit i: site i), byte i = bit i — the group's four
// noScale flags as one 32-bit OR.
var (
	laneThresh = [4]float64{ScaleThreshold, ScaleThreshold, ScaleThreshold, ScaleThreshold}
	laneFlags  = func() (t [16]uint32) {
		for m := range t {
			for i := 0; i < 4; i++ {
				t[m] |= uint32(m>>i&1) << (8 * i)
			}
		}
		return t
	}()
)

// haveLanes reports whether the CPU runs AVX2 and the OS saves the YMM
// registers: CPUID leaf 1 ECX has OSXSAVE (27) and AVX (28), XCR0 enables
// the SSE and AVX state (bits 1 and 2), and CPUID leaf 7 EBX has AVX2 (5).
var haveLanes = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx || xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}()

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

//go:noescape
func laneNewview(d, a, b []float64, stride int, pa, pb *[ns * ns]float64, noScale []bool, n int)

//go:noescape
func laneNewviewTipA(d, b []float64, tips []msa.State, tab []float64, toff, stride int, pb *[ns * ns]float64, noScale []bool, n int)

//go:noescape
func laneNewviewTipB(d, a []float64, tips []msa.State, tab []float64, toff, stride int, pa *[ns * ns]float64, noScale []bool, n int)

//go:noescape
func laneScore(site, a, b, t []float64, stride int, pm *[ns * ns]float64, f0, f1, f2, f3, catW float64, noScale []bool, n int)

//go:noescape
func laneScoreTip(site, a []float64, tips []msa.State, tab []float64, toff int, t []float64, stride int, pm *[ns * ns]float64, f0, f1, f2, f3, catW float64, noScale []bool, n int)

//go:noescape
func laneEvaluate(site, p []float64, poff int, q []float64, stride int, pm *[ns * ns]float64, f0, f1, f2, f3, catW float64, n int)

//go:noescape
func laneEvaluateTipP(site []float64, tips []msa.State, tipVec *[16][ns]float64, q []float64, stride int, pm *[ns * ns]float64, f0, f1, f2, f3, catW float64, n int)

//go:noescape
func laneEvaluateTipQ(site, p []float64, poff int, tips []msa.State, tab []float64, toff, stride int, f0, f1, f2, f3, catW float64, n int)
