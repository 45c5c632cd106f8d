//go:build !amd64

package likelihood

import "repro/internal/msa"

// Without the amd64 routines every lane call does 0 sites: laneMask stays
// 0, and the workers' Go loops compute every site.

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
