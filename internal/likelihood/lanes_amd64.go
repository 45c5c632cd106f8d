package likelihood

import "repro/internal/msa"

// The AVX2 routines of lanes_amd64.s (Γ site lanes), lanes_psr_amd64.s
// (PSR state lanes) and lanes_log_amd64.s (the log), and the CPU check
// that enables them. Each routine's comment there says what it computes;
// lanes.go says how the workers call them.

// laneThresh is ScaleThreshold in all four lanes: the scale test's
// right-hand operand; laneScale is ScaleFactor in all four, a PSR
// rescale's factor. laneFlags[m] holds, for the 4-bit mask m of a Γ
// group's scale test (bit i: site i), byte i = bit i — the group's four
// noScale flags as one 32-bit OR.
var (
	laneThresh = [4]float64{ScaleThreshold, ScaleThreshold, ScaleThreshold, ScaleThreshold}
	laneScale  = [4]float64{ScaleFactor, ScaleFactor, ScaleFactor, ScaleFactor}
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

//go:noescape
func lanePSRNewview(d, a []float64, tipsA []msa.State, tabA []float64, tipA bool, b []float64, tipsB []msa.State, tabB []float64, tipB bool, stride int, cats []int, pa, pb *[ns * ns]float64, sa, sb, ds []int32)

//go:noescape
func lanePSREvaluate(site, p []float64, tipsP []msa.State, tipVec *[16][ns]float64, tipP bool, q []float64, tipsQ []msa.State, tabQ []float64, tipQ bool, stride int, cats []int, pm *[ns * ns]float64, freqs *[ns]float64)

//go:noescape
func lanePSRRight(d, q []float64, stride int, cats []int, pm *[ns * ns]float64)

//go:noescape
func lanePSRScore(site []float64, noScale []bool, a, b []float64, tipsB []msa.State, tabB []float64, tipB bool, t []float64, stride int, cats []int, pm *[ns * ns]float64, freqs *[ns]float64)

//go:noescape
func laneSiteLnL(vec [][ns]float64, scale []int32, steps []Step, tips [][]msa.State, site int, tipVec *[16][ns]float64, pm [][ns * ns]float64, p, q Ref, freqs *[ns]float64) (l float64, sc int32)

//go:noescape
func laneLog(v []float64, n int)
