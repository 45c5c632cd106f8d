//go:build !amd64

package likelihood

import "repro/internal/msa"

// Without the amd64 routines every lane call does 0 sites: laneWidth and
// laneMask stay 0, and the workers' Go loops compute every site. The PSR
// routines, the Γ derivative routine, laneSiteLnL, laneAssemble and
// laneTipTable are only called while laneMask != 0, laneExp only while
// haveExpLanes holds.

const haveLanes, haveLanes8, haveExpLanes = false, false, false

func laneNewview(d, a []float64, tipsA []msa.State, tabA []float64, tipA bool, b []float64, tipsB []msa.State, tabB []float64, tipB bool, stride int, pa, pb *[gammaCats][ns * ns]float64, noScale []bool, sa, sb, ds []int32, n int) (rescale bool) {
	return false
}

func laneCandidate(d []float64, nds []int32, a []float64, tipsA []msa.State, tabA []float64, tipA bool, b []float64, tipsB []msa.State, tabB []float64, tipB bool, sa, sb []int32, f []float64, tipsF []msa.State, tabF []float64, tipF bool, t []float64, stride int, pa, pb, ph *[gammaCats][ns * ns]float64, freqs *[ns]float64, catW float64, site []float64, noScale []bool, n int) {
}

func laneEvaluate(site, p []float64, tipsP []msa.State, tipVec *[16][ns]float64, tipP bool, q []float64, tipsQ []msa.State, tab []float64, tipQ bool, toff, stride int, pm *[ns * ns]float64, f0, f1, f2, f3, catW float64, n int) {
}

func laneNewview8(d, a []float64, tipsA []msa.State, tabA []float64, tipA bool, b []float64, tipsB []msa.State, tabB []float64, tipB bool, stride int, pa, pb *[gammaCats][ns * ns]float64, noScale []bool, sa, sb, ds []int32, n int) (rescale bool) {
	return false
}

func laneCandidate8(d []float64, nds []int32, a []float64, tipsA []msa.State, tabA []float64, tipA bool, b []float64, tipsB []msa.State, tabB []float64, tipB bool, sa, sb []int32, f []float64, tipsF []msa.State, tabF []float64, tipF bool, t []float64, stride int, pa, pb, ph *[gammaCats][ns * ns]float64, freqs *[ns]float64, catW float64, site []float64, noScale []bool, n int) {
}

func laneEvaluate8(site, p []float64, tipsP []msa.State, tipVec *[16][ns]float64, tipP bool, q []float64, tipsQ []msa.State, tab []float64, tipQ bool, toff, stride int, pm *[ns * ns]float64, f0, f1, f2, f3, catW float64, n int) {
}

func laneGammaPrepare(st, p []float64, tipsP []msa.State, tabP []float64, tipP bool, q []float64, tipsQ []msa.State, tabQ []float64, tipQ bool, stride int, ut, uinv *[ns * ns]float64, freqs *[ns]float64, n int) {
}

func laneGammaDerivatives(terms []siteTerms, st []float64, w []int, stride, lo, n int, ex, lam *[gammaCats][ns]float64, catW float64) {
}

func lanePSRNewview(d, a []float64, tipsA []msa.State, tabA []float64, tipA bool, b []float64, tipsB []msa.State, tabB []float64, tipB bool, stride int, cats []int, pa, pb *[ns * ns]float64, sa, sb, ds []int32) {
}

func lanePSREvaluate(site, p []float64, tipsP []msa.State, tipVec *[16][ns]float64, tipP bool, q []float64, tipsQ []msa.State, tabQ []float64, tipQ bool, stride int, cats []int, pm *[ns * ns]float64, freqs *[ns]float64) {
}

func lanePSRRight(d, q []float64, stride int, cats []int, pm *[ns * ns]float64) {}

func lanePSRScore(site []float64, noScale []bool, a, b []float64, tipsB []msa.State, tabB []float64, tipB bool, t []float64, stride int, cats []int, pm *[ns * ns]float64, freqs *[ns]float64) {
}

func lanePSRPrepare(st, p []float64, tipsP []msa.State, tabP []float64, tipP bool, q []float64, tipsQ []msa.State, tabQ []float64, tipQ bool, stride, lo, n int, u, uit *[ns * ns]float64, freqs *[ns]float64) {
}

func lanePSRDerivatives(terms []siteTerms, st []float64, cats, w []int, lo, n int, ex, lam [][ns]float64) {
}

func laneSiteLnL(vec [][ns]float64, scale []int32, steps []Step, tips [][]msa.State, site int, tipVec *[16][ns]float64, pm [][ns * ns]float64, p, q Ref, freqs *[ns]float64) (l float64, sc int32) {
	return 0, 0
}

func laneLog(v []float64, n int) {}

func laneExp(v []float64) int { return 0 }

func laneAssemble(dst [][ns * ns]float64, ex []float64, u, uinv, stat *[ns * ns]float64, transpose bool) {
}

func laneTipTable(dst []float64, pm [][ns * ns]float64, tipVec *[16][ns]float64, mask uint16, catMask []uint16, cols bool) {
}
