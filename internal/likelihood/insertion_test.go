package likelihood_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/traversal"
)

// TestInsertionScoreBitIdentical holds the candidate operation to the
// general kernels it replaces: PrepareInsertion + ScoreInsertion(step)
// must return the bits of Newview(step), then Newview of the step's slot
// and the far operand into a free outer slot followed by Evaluate, for
// both rate models, every far-operand shape (tip, post-order CLV, outer
// vector), both subtree shapes (tip, CLV), steps of an outer vector and a
// CLV, of a tip and a CLV and of two tips, and with no pool, one thread
// and four. The step's slot, poisoned first so that a score reading it
// would show, must then hold the bits and scale counts Newview(step)
// writes. Each combination runs on the operands as traversed, where
// nothing rescales; with the inserted column rescaling at some sites —
// both branches of that decision inside one block, and counted; with a
// step operand shrunk by 2^-300 at every seventh site, where those sites
// of the near vector rescale and the inserted column does not; and with
// both. A CLV or outer far operand makes the inserted column rescale
// shrunk by 2^-300 at every seventh site. A tip cannot be shrunk, so under
// a tip far operand the step's operand is, at sites 3 mod 7, by the power
// of two that leaves the near vector's largest entry just at or above
// ScaleThreshold and the inserted column's below it (edgeShrink). A
// step of two tips has nothing to shrink. Every lane width the CPU runs
// is held to the serial kernel without lanes.
func TestInsertionScoreBitIdentical(t *testing.T) {
	const half, subT, ta, tb = 0.07, 0.19, 0.11, 0.05
	tiny := math.Exp2(-300)
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
				if len(tips) < 4 || len(clvs) < 3 || len(outers) < 2 {
					t.Fatalf("plan offers %d tips, %d CLVs, %d outer vectors", len(tips), len(clvs), len(outers))
				}
				near, free := likelihood.OuterAt(2*f.tree.NTaxa()-2), likelihood.OuterAt(2*f.tree.NTaxa()-1)
				var shrunk, edge []int
				for i := 0; i < k.NPatterns(); i++ {
					switch i % 7 {
					case 0:
						shrunk = append(shrunk, i)
					case 3:
						edge = append(edge, i)
					}
				}
				steps := []likelihood.Step{
					{Dst: near, A: outers[0], B: clvs[0], TA: ta, TB: tb},
					{Dst: near, A: tips[2], B: clvs[0], TA: ta, TB: tb},
					{Dst: near, A: tips[2], B: tips[3], TA: ta, TB: tb},
				}
				k.Newview(steps[0])

				var got []uint64
				for _, step := range steps {
					for _, far := range []likelihood.Ref{tips[0], clvs[1], outers[1]} {
						// shrink: the inserted column rescales, the near vector
						// does.
						for _, shrink := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
							if (shrink[1] || shrink[0] && far.Kind == likelihood.Tip) && step.B.Kind == likelihood.Tip {
								continue
							}
							// Each shrink is a power of two, undone exactly below.
							type shrinkOp struct {
								r     likelihood.Ref
								sites []int
								f     float64
							}
							var small []shrinkOp
							wantRescaled := 0
							if shrink[0] && far.Kind == likelihood.Tip {
								fs := edgeShrink(k, step, far, free, half, edge)
								if len(fs) == 0 {
									t.Fatalf("%v width=%d T=%d step=%v far=%v: no site lets the inserted column rescale and the near vector not", het, width, threads, step, far)
								}
								for i, f := range fs {
									small = append(small, shrinkOp{step.B, []int{i}, f})
								}
								wantRescaled = len(fs)
							} else if shrink[0] {
								small = append(small, shrinkOp{far, shrunk, tiny})
								wantRescaled = len(shrunk)
							}
							if shrink[1] {
								small = append(small, shrinkOp{step.B, shrunk, tiny})
							}
							for _, s := range small {
								k.ShrinkSites(s.r, s.sites, s.f)
							}
							for _, sub := range []likelihood.Ref{tips[1], clvs[2]} {
								name := fmt.Sprintf("%v width=%d T=%d step=%v far=%v shrunk column/near=%v sub=%v", het, width, threads, step, far, shrink, sub)
								k.PoisonVector(near)
								before := k.Counters()[telemetry.RankInsertionRescales]
								k.PrepareInsertion(sub, subT)
								score := k.ScoreInsertion(step, far, half)
								rescaled := k.Counters()[telemetry.RankInsertionRescales] - before
								gotCLV, gotScale := k.Vector(near)

								k.Newview(step)
								wantCLV, wantScale := k.Vector(near)
								if !sameVector(gotCLV, wantCLV) || !slices.Equal(gotScale, wantScale) {
									t.Errorf("%s: the step's slot does not hold what Newview(step) writes", name)
								}
								k.Newview(likelihood.Step{Dst: free, A: near, B: far, TA: half, TB: half})
								want := k.Evaluate(free, sub, subT)

								if math.IsNaN(want) || math.IsInf(want, 0) {
									t.Fatalf("%s: reference score %v", name, want)
								}
								if math.Float64bits(score) != math.Float64bits(want) {
									t.Errorf("%s: fused score %v (%x), newview + newview + evaluate %v (%x)", name, score, math.Float64bits(score), want, math.Float64bits(want))
								}
								if int(rescaled) != wantRescaled {
									t.Errorf("%s: %d of %d sites took the rescale branch, want %d", name, rescaled, k.NPatterns(), wantRescaled)
								}
								got = append(got, math.Float64bits(score))
							}
							for _, s := range small {
								k.ShrinkSites(s.r, s.sites, 1/s.f)
							}
							if shrink[1] {
								// The near vector rescaled where the step's operand was
								// shrunk: its scale counts say so.
								k.Newview(step)
								k.ShrinkSites(step.B, shrunk, tiny)
								_, plain := k.Vector(near)
								k.Newview(step)
								_, scaled := k.Vector(near)
								k.ShrinkSites(step.B, shrunk, 1/tiny)
								for _, i := range shrunk {
									if scaled[i] != plain[i]+1 {
										t.Fatalf("%v width=%d T=%d step=%v: site %d of the near vector has %d scaling events, %d unshrunk: the shrunk operand made nothing rescale", het, width, threads, step, i, scaled[i], plain[i])
									}
								}
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

// edgeShrink returns, for each of the given sites where one exists, the
// power of two f that leaves the largest entry of the near vector
// Newview(step) forms from f·step.B at or above ScaleThreshold and every
// entry of the vertex inserted between it and far across (half, half)
// below: the inserted column rescales, the near vector does not. A power
// of two scales every product and sum of the two Newviews exactly, so the
// largest entries, read once from the unshrunk operands, scale by f too.
// free is an outer slot the Newview of the inserted vertex may use.
func edgeShrink(k likelihood.Now, step likelihood.Step, far, free likelihood.Ref, half float64, sites []int) map[int]float64 {
	k.Newview(step)
	nearCLV, _ := k.Vector(step.Dst)
	k.Newview(likelihood.Step{Dst: free, A: step.Dst, B: far, TA: half, TB: half})
	vCLV, _ := k.Vector(free)
	n := k.NPatterns()
	colMax := func(clv []float64, i int) float64 {
		m := 0.0
		for p := i; p < len(clv); p += n {
			m = max(m, clv[p])
		}
		return m
	}
	fs := map[int]float64{}
	for _, i := range sites {
		m, v := colMax(nearCLV, i), colMax(vCLV, i)
		f := 1.0
		for m*f/2 >= likelihood.ScaleThreshold {
			f /= 2
		}
		if v*f < likelihood.ScaleThreshold {
			fs[i] = f
		}
	}
	return fs
}

// sameVector reports whether a and b hold the same bits.
func sameVector(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
