package likelihood_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/traversal"
)

// TestInsertionScoreBitIdentical holds the fused insertion kernel to the
// pair of general kernels it replaces: PrepareInsertion + ScoreInsertion
// must return the bits of Newview into a free outer slot followed by
// Evaluate, for both rate models, every far-operand shape (tip,
// post-order CLV, outer vector), both subtree shapes (tip, CLV), a CLV
// and an outer vector as the near operand, and with no pool, one thread
// and four. Each combination runs twice: on the operands as traversed,
// where no site of the inserted column needs rescaling, and with the
// near operand shrunk by 2^-300 at every seventh site, where exactly
// those sites do — so both branches of the rescale decision are hit
// inside one block, and counted. Every lane width the CPU runs is held to
// the serial kernel without lanes.
func TestInsertionScoreBitIdentical(t *testing.T) {
	const half, subT = 0.07, 0.19
	defer likelihood.SetLanes(likelihood.SetLanes(0))
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		var serial []uint64
		for _, width := range laneSettings(t) {
			likelihood.SetLanes(width)
			for _, threads := range []int{0, 1, 4} {
				f, pool := threadedFixture(t, het, threads)
				k := f.kern
				k.Traverse(traversal.ForEdge(f.tree, f.tree.Tip(0), 0, true))
				plan, _ := traversal.BuildGradient(f.tree, nil)
				k.Traverse(plan.Pre[0])

				// One operand of each kind from the gradient plan: an edge's P is
				// the tip or CLV below it, its Q the outer vector above.
				var tips, clvs, outers []likelihood.Ref
				for _, e := range plan.Edges {
					switch {
					case e.P.Kind == likelihood.Tip:
						tips = append(tips, e.P)
					case e.P.Kind == likelihood.Inner:
						clvs = append(clvs, e.P)
					}
					if e.Q.Kind == likelihood.Outer {
						outers = append(outers, e.Q)
					}
				}
				if len(tips) < 2 || len(clvs) < 3 || len(outers) < 2 {
					t.Fatalf("plan offers %d tips, %d CLVs, %d outer vectors", len(tips), len(clvs), len(outers))
				}
				free := likelihood.OuterAt(2*f.tree.NTaxa() - 2)
				var shrunk []int
				for i := 0; i < k.NPatterns(); i += 7 {
					shrunk = append(shrunk, i)
				}

				var got []uint64
				for _, small := range []bool{false, true} {
					for _, near := range []likelihood.Ref{outers[0], clvs[0]} {
						if small {
							k.ShrinkSites(near, shrunk, math.Exp2(-300))
						}
						for _, far := range []likelihood.Ref{tips[0], clvs[1], outers[1]} {
							for _, sub := range []likelihood.Ref{tips[1], clvs[2]} {
								name := fmt.Sprintf("%v width=%d T=%d small=%v near=%v far=%v sub=%v", het, width, threads, small, near, far, sub)
								k.Newview(likelihood.Step{Dst: free, A: near, B: far, TA: half, TB: half})
								want := k.Evaluate(free, sub, subT)

								before := k.InsertionRescales()
								k.PrepareInsertion(sub, subT)
								score := k.ScoreInsertion(near, far, half)
								rescaled := k.InsertionRescales() - before

								if math.IsNaN(want) || math.IsInf(want, 0) {
									t.Fatalf("%s: reference score %v", name, want)
								}
								if math.Float64bits(score) != math.Float64bits(want) {
									t.Errorf("%s: fused score %v (%x), newview + evaluate %v (%x)", name, score, math.Float64bits(score), want, math.Float64bits(want))
								}
								wantRescaled := 0
								if small {
									wantRescaled = len(shrunk)
								}
								if int(rescaled) != wantRescaled {
									t.Errorf("%s: %d of %d sites took the rescale branch, want %d", name, rescaled, k.NPatterns(), wantRescaled)
								}
								got = append(got, math.Float64bits(score))
							}
						}
					}
				}
				pool.Close()
				if serial == nil {
					serial = got
				}
				for i := range got {
					if got[i] != serial[i] {
						t.Errorf("%v width=%d T=%d: score %d has bits %x, the serial kernel without lanes %x", het, width, threads, i, got[i], serial[i])
					}
				}
			}
		}
	}
}
