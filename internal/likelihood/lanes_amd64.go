package likelihood

import "repro/internal/msa"

// The AVX2 routines of lanes_amd64.s (Γ site lanes, the Γ sum-table
// workers among them), lanes_avx512_amd64.s (the Γ site lanes eight wide), lanes_psr_amd64.s (PSR state lanes and the PSR
// sum-table workers), lanes_log_amd64.s (the log), lanes_exp_amd64.s
// (the exponential) and lanes_table_amd64.s (P-matrix assembly and tip
// tables), and the CPU checks that enable them. Each routine's
// comment there says what it computes; lanes.go says how the workers call
// them.

// laneThresh is ScaleThreshold in all four lanes: the scale test's
// right-hand operand; laneScale is ScaleFactor in all four, a rescale's
// factor.
var (
	laneThresh = [4]float64{ScaleThreshold, ScaleThreshold, ScaleThreshold, ScaleThreshold}
	laneScale  = [4]float64{ScaleFactor, ScaleFactor, ScaleFactor, ScaleFactor}
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

// haveLanes8 reports whether the CPU runs the eight-wide Γ site lanes:
// the AVX2 lanes run, CPUID leaf 7 EBX has AVX512F (16), AVX512DQ (17)
// and AVX512BW (30), and XCR0 enables the opmask and ZMM state (bits 5,
// 6 and 7).
var haveLanes8 = func() bool {
	if !haveLanes {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const f, dq, bw = 1 << 16, 1 << 17, 1 << 30
	return ebx7&(f|dq|bw) == f|dq|bw && xgetbv()&0xe0 == 0xe0
}()

// haveExpLanes reports whether laneExp runs: the lanes run and CPUID leaf
// 1 ECX has FMA (12). That is exactly where math.Exp takes the FMA arm of
// archExp (math's useFMA is AVX && FMA), the arm laneExp transcribes; on
// every other host math.Exp computes every exponential.
var haveExpLanes = func() bool {
	if !haveLanes {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	return ecx1&(1<<12) != 0
}()

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

//go:noescape
func laneNewview(d, a []float64, tipsA []msa.State, tabA []float64, tipA bool, b []float64, tipsB []msa.State, tabB []float64, tipB bool, stride int, pa, pb *[gammaCats][ns * ns]float64, noScale []bool, sa, sb, ds []int32, n int) (rescale bool)

//go:noescape
func laneCandidate(d []float64, nds []int32, a []float64, tipsA []msa.State, tabA []float64, tipA bool, b []float64, tipsB []msa.State, tabB []float64, tipB bool, sa, sb []int32, f []float64, tipsF []msa.State, tabF []float64, tipF bool, t []float64, stride int, pa, pb, ph *[gammaCats][ns * ns]float64, freqs *[ns]float64, catW float64, site []float64, noScale []bool, n int)

//go:noescape
func laneEvaluate(site, p []float64, tipsP []msa.State, tipVec *[16][ns]float64, tipP bool, q []float64, tipsQ []msa.State, tab []float64, tipQ bool, toff, stride int, pm *[ns * ns]float64, f0, f1, f2, f3, catW float64, n int)

//go:noescape
func laneNewview8(d, a []float64, tipsA []msa.State, tabA []float64, tipA bool, b []float64, tipsB []msa.State, tabB []float64, tipB bool, stride int, pa, pb *[gammaCats][ns * ns]float64, noScale []bool, sa, sb, ds []int32, n int) (rescale bool)

//go:noescape
func laneCandidate8(d []float64, nds []int32, a []float64, tipsA []msa.State, tabA []float64, tipA bool, b []float64, tipsB []msa.State, tabB []float64, tipB bool, sa, sb []int32, f []float64, tipsF []msa.State, tabF []float64, tipF bool, t []float64, stride int, pa, pb, ph *[gammaCats][ns * ns]float64, freqs *[ns]float64, catW float64, site []float64, noScale []bool, n int)

//go:noescape
func laneEvaluate8(site, p []float64, tipsP []msa.State, tipVec *[16][ns]float64, tipP bool, q []float64, tipsQ []msa.State, tab []float64, tipQ bool, toff, stride int, pm *[ns * ns]float64, f0, f1, f2, f3, catW float64, n int)

//go:noescape
func laneGammaPrepare(st, p []float64, tipsP []msa.State, tabP []float64, tipP bool, q []float64, tipsQ []msa.State, tabQ []float64, tipQ bool, stride int, ut, uinv *[ns * ns]float64, freqs *[ns]float64, n int)

//go:noescape
func laneGammaDerivatives(terms []siteTerms, st []float64, w []int, stride, lo, n int, ex, lam *[gammaCats][ns]float64, catW float64)

//go:noescape
func lanePSRNewview(d, a []float64, tipsA []msa.State, tabA []float64, tipA bool, b []float64, tipsB []msa.State, tabB []float64, tipB bool, stride int, cats []int, pa, pb *[ns * ns]float64, sa, sb, ds []int32)

//go:noescape
func lanePSREvaluate(site, p []float64, tipsP []msa.State, tipVec *[16][ns]float64, tipP bool, q []float64, tipsQ []msa.State, tabQ []float64, tipQ bool, stride int, cats []int, pm *[ns * ns]float64, freqs *[ns]float64)

//go:noescape
func lanePSRRight(d, q []float64, stride int, cats []int, pm *[ns * ns]float64)

//go:noescape
func lanePSRScore(site []float64, noScale []bool, a, b []float64, tipsB []msa.State, tabB []float64, tipB bool, t []float64, stride int, cats []int, pm *[ns * ns]float64, freqs *[ns]float64)

//go:noescape
func lanePSRPrepare(st, p []float64, tipsP []msa.State, tabP []float64, tipP bool, q []float64, tipsQ []msa.State, tabQ []float64, tipQ bool, stride, lo, n int, u, uit *[ns * ns]float64, freqs *[ns]float64)

//go:noescape
func lanePSRDerivatives(terms []siteTerms, st []float64, cats, w []int, lo, n int, ex, lam [][ns]float64)

//go:noescape
func laneSiteLnL(vec [][ns]float64, scale []int32, steps []Step, tips [][]msa.State, site int, tipVec *[16][ns]float64, pm [][ns * ns]float64, p, q Ref, freqs *[ns]float64) (l float64, sc int32)

//go:noescape
func laneLog(v []float64, n int)

//go:noescape
func laneExp(v []float64) int

//go:noescape
func laneAssemble(dst [][ns * ns]float64, ex []float64, u, uinv, stat *[ns * ns]float64, transpose bool)

//go:noescape
func laneTipTable(dst []float64, pm [][ns * ns]float64, tipVec *[16][ns]float64, mask uint16, catMask []uint16, cols bool)
