package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/decentral"
	"repro/internal/enginecore"
	"repro/internal/forkjoin"
	"repro/internal/search"
)

// Fig3Point is one (nodes, model) point of Figure 3.
type Fig3Point struct {
	// Nodes is the cluster node count (48 cores each).
	Nodes int
	// Seconds is the projected ExaML runtime.
	Seconds float64
	// Speedup is relative to the 1-node projection of the same model.
	Speedup float64
	// Swapping marks the memory-thrashing region (Γ on 1–2 nodes).
	Swapping bool
	// ForkJoinSeconds is the RAxML-Light projection at the same scale.
	ForkJoinSeconds float64
}

// Fig3Measured is the telemetry profile of one real (measured-scale)
// decentral run backing the projections.
type Fig3Measured struct {
	// ImbalanceRatio is max/mean per-rank kernel time.
	ImbalanceRatio float64
	// CommFraction is collective time over collective+compute time.
	CommFraction float64
	// CommSeconds is the mean per-rank time spent inside collectives.
	CommSeconds float64
}

// Fig3Result reproduces Figure 3.
type Fig3Result struct {
	// Gamma and PSR are the two curves.
	Gamma, PSR []Fig3Point
	// MeasuredGamma and MeasuredPSR are telemetry profiles of the real
	// decentral runs (measured scale, not projected).
	MeasuredGamma, MeasuredPSR Fig3Measured
	// MeasuredWall are real wall-clock seconds of the scaled run at
	// rank counts {1, 2, 4, Ranks} under Γ (sanity anchor).
	MeasuredWall map[int]float64
	// Scale echoes the measurement/extrapolation dimensions.
	MeasuredTaxa, MeasuredPatterns, PaperTaxa, PaperPatterns int

	// PaperSpeedupPSR8 and PaperSpeedupPSR32 are the paper's reference
	// speedups (6.9 @ 8 nodes, 26.9 @ 32 nodes vs 1 node under PSR).
	PaperSpeedupPSR8, PaperSpeedupPSR32 float64
	// Gamma32Ratio is fork-join seconds / decentral seconds at 32 nodes
	// under Γ (paper: 6108/4990 ≈ 1.22).
	Gamma32Ratio, PaperGamma32Ratio float64
}

// Fig3 reproduces Figure 3: the scheme runs for real on the scaled
// unpartitioned dataset, the metered trace is extrapolated to the paper's
// 150-taxon × 12.6 M-pattern dimensions, and the cost model projects
// every node count. The Γ memory footprint at paper scale exceeds 1–2
// nodes' RAM, reproducing the super-linear-speedup artifact.
func Fig3(sc Scale) (*Fig3Result, error) {
	d, err := genUnpartitioned(sc)
	if err != nil {
		return nil, err
	}
	out := &Fig3Result{
		MeasuredWall:      map[int]float64{},
		MeasuredTaxa:      sc.Fig3Taxa,
		MeasuredPatterns:  d.TotalPatterns(),
		PaperTaxa:         sc.Fig3PaperTaxa,
		PaperPatterns:     sc.Fig3PaperPatterns,
		PaperSpeedupPSR8:  6.9,
		PaperSpeedupPSR32: 26.9,
		PaperGamma32Ratio: 6108.0 / 4990.0,
	}

	// Extrapolation factors from the measured dataset to paper size:
	// compute scales with patterns × inner vertices; communication volume
	// with the region count, which scales with the edge count (2n−3);
	// Γ CLV memory with patterns × inner × 128 B.
	patF := float64(sc.Fig3PaperPatterns) / float64(d.TotalPatterns())
	innerF := float64(sc.Fig3PaperTaxa-2) / float64(sc.Fig3Taxa-2)
	edgeF := float64(2*sc.Fig3PaperTaxa-3) / float64(2*sc.Fig3Taxa-3)
	computeF := patF * innerF
	hw := cluster.MagnyCours()

	for _, psr := range []bool{false, true} {
		cfg := search.Config{Het: hetOf(psr), Seed: sc.Seed, MaxIterations: sc.MaxIterations}
		tcol := newTelemetry(sc.Ranks)
		_, dstats, err := decentral.Run(d, enginecore.RunConfig{Search: cfg, Ranks: sc.Ranks, Telemetry: tcol})
		if err != nil {
			return nil, fmt.Errorf("fig3 decentral psr=%v: %w", psr, err)
		}
		rep := dstats.TelemetryReport(tcol, 1)
		var commNS int64
		for _, rs := range rep.PerRank {
			commNS += rs.CommNS
		}
		measured := Fig3Measured{
			ImbalanceRatio: rep.ImbalanceRatio,
			CommFraction:   rep.CommFraction,
			CommSeconds:    float64(commNS) / float64(sc.Ranks) / 1e9,
		}
		if psr {
			out.MeasuredPSR = measured
		} else {
			out.MeasuredGamma = measured
		}
		_, fstats, err := forkjoin.Run(d, enginecore.RunConfig{Search: cfg, Ranks: sc.Ranks})
		if err != nil {
			return nil, fmt.Errorf("fig3 forkjoin psr=%v: %w", psr, err)
		}

		dtr := dstats.Trace.Scaled(computeF, edgeF)
		ftr := fstats.Trace.Scaled(computeF, edgeF)

		var points []Fig3Point
		var base float64
		for _, nodes := range sc.Fig3Nodes {
			ranks := nodes * hw.CoresPerNode
			pd, err := cluster.Project(dtr, ranks, hw)
			if err != nil {
				return nil, err
			}
			pf, err := cluster.Project(ftr, ranks, hw)
			if err != nil {
				return nil, err
			}
			if nodes == sc.Fig3Nodes[0] {
				base = pd.TotalSec
			}
			points = append(points, Fig3Point{
				Nodes:           nodes,
				Seconds:         pd.TotalSec,
				Speedup:         base / pd.TotalSec,
				Swapping:        pd.Swapping,
				ForkJoinSeconds: pf.TotalSec,
			})
		}
		if psr {
			out.PSR = points
		} else {
			out.Gamma = points
			last := points[len(points)-1]
			out.Gamma32Ratio = last.ForkJoinSeconds / last.Seconds
		}
	}

	// Real measured wall times at small rank counts (Γ) as an anchor that
	// the in-process runtime itself scales.
	for _, ranks := range []int{1, 2, sc.Ranks} {
		cfg := search.Config{Het: hetOf(false), Seed: sc.Seed, MaxIterations: 1}
		_, stats, err := decentral.Run(d, enginecore.RunConfig{Search: cfg, Ranks: ranks})
		if err != nil {
			return nil, err
		}
		out.MeasuredWall[ranks] = stats.Wall.Seconds()
	}
	return out, nil
}

// Render prints the figure as text series.
func (f *Fig3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — ExaML runtimes on the large unpartitioned alignment\n")
	fmt.Fprintf(&b, "(measured at %d taxa / %d patterns, projected to %d taxa / %d patterns on 48-core nodes)\n\n",
		f.MeasuredTaxa, f.MeasuredPatterns, f.PaperTaxa, f.PaperPatterns)
	fmt.Fprintf(&b, "%6s | %-34s | %-22s\n", "nodes", "GAMMA  sec    speedup  (state)", "PSR    sec    speedup")
	for i := range f.Gamma {
		g, p := f.Gamma[i], f.PSR[i]
		state := ""
		if g.Swapping {
			state = "SWAPPING"
		}
		fmt.Fprintf(&b, "%6d | %10.1f %8.2fx %-9s | %10.1f %8.2fx\n",
			g.Nodes, g.Seconds, g.Speedup, state, p.Seconds, p.Speedup)
	}
	ps8, ps32 := findSpeedup(f.PSR, 8), findSpeedup(f.PSR, 32)
	fmt.Fprintf(&b, "\nPSR speedup vs 1 node:   measured %5.1fx @ 8 nodes (paper %.1fx), %5.1fx @ 32 nodes (paper %.1fx)\n",
		ps8, f.PaperSpeedupPSR8, ps32, f.PaperSpeedupPSR32)
	fmt.Fprintf(&b, "Γ @32 nodes, RAxML-Light/ExaML runtime ratio: measured %.2fx (paper %.2fx)\n",
		f.Gamma32Ratio, f.PaperGamma32Ratio)
	fmt.Fprintf(&b, "Measured wall-clock anchor (Γ, this machine): ")
	for _, r := range []int{1, 2} {
		fmt.Fprintf(&b, "%d ranks %.2fs  ", r, f.MeasuredWall[r])
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "Measured telemetry (decentral, measured scale): Γ imbalance %.3f comm-frac %.3f comm-time %.3fs | PSR imbalance %.3f comm-frac %.3f comm-time %.3fs\n",
		f.MeasuredGamma.ImbalanceRatio, f.MeasuredGamma.CommFraction, f.MeasuredGamma.CommSeconds,
		f.MeasuredPSR.ImbalanceRatio, f.MeasuredPSR.CommFraction, f.MeasuredPSR.CommSeconds)
	return b.String()
}

func findSpeedup(points []Fig3Point, nodes int) float64 {
	for _, p := range points {
		if p.Nodes == nodes {
			return p.Speedup
		}
	}
	return 0
}
