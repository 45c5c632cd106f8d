//go:build !amd64

package likelihood

import "repro/internal/msa"

// Without the amd64 routines every lane call does 0 sites: laneMask stays
// 0, and the workers' Go loops compute every site. The PSR routines and
// laneSiteLnL are only called while laneMask != 0.

const haveLanes = false

func laneNewview(d, a, b []float64, stride int, pa, pb *[ns * ns]float64, noScale []bool, n int) {}

func laneNewviewTipA(d, b []float64, tips []msa.State, tab []float64, toff, stride int, pb *[ns * ns]float64, noScale []bool, n int) {
}

func laneNewviewTipB(d, a []float64, tips []msa.State, tab []float64, toff, stride int, pa *[ns * ns]float64, noScale []bool, n int) {
}

func laneScore(site, a, b, t []float64, stride int, pm *[ns * ns]float64, f0, f1, f2, f3, catW float64, noScale []bool, n int) {
}

func laneScoreTip(site, a []float64, tips []msa.State, tab []float64, toff int, t []float64, stride int, pm *[ns * ns]float64, f0, f1, f2, f3, catW float64, noScale []bool, n int) {
}

func laneEvaluate(site, p []float64, poff int, q []float64, stride int, pm *[ns * ns]float64, f0, f1, f2, f3, catW float64, n int) {
}

func laneEvaluateTipP(site []float64, tips []msa.State, tipVec *[16][ns]float64, q []float64, stride int, pm *[ns * ns]float64, f0, f1, f2, f3, catW float64, n int) {
}

func laneEvaluateTipQ(site, p []float64, poff int, tips []msa.State, tab []float64, toff, stride int, f0, f1, f2, f3, catW float64, n int) {
}

func lanePSRNewview(d, a []float64, tipsA []msa.State, tabA []float64, tipA bool, b []float64, tipsB []msa.State, tabB []float64, tipB bool, stride int, cats []int, pa, pb *[ns * ns]float64, sa, sb, ds []int32) {
}

func lanePSREvaluate(site, p []float64, tipsP []msa.State, tipVec *[16][ns]float64, tipP bool, q []float64, tipsQ []msa.State, tabQ []float64, tipQ bool, stride int, cats []int, pm *[ns * ns]float64, freqs *[ns]float64) {
}

func lanePSRRight(d, q []float64, stride int, cats []int, pm *[ns * ns]float64) {}

func lanePSRScore(site []float64, noScale []bool, a, b []float64, tipsB []msa.State, tabB []float64, tipB bool, t []float64, stride int, cats []int, pm *[ns * ns]float64, freqs *[ns]float64) {
}

func laneSiteLnL(vec [][ns]float64, scale []int32, steps []Step, tips [][]msa.State, site int, tipVec *[16][ns]float64, pm [][ns * ns]float64, p, q Ref, freqs *[ns]float64) (l float64, sc int32) {
	return 0, 0
}

func laneLog(v []float64, n int) {}
