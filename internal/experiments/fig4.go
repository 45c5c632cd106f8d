package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/search"
)

// Fig4Point is one (partitions, model) measurement of Figure 4.
type Fig4Point struct {
	// Partitions is the partition count.
	Partitions int
	// PSR distinguishes the two curve families.
	PSR bool
	// ExaMLSeconds and RAxMLLightSeconds are the projected runtimes at
	// the cluster scale (paper: 4 nodes / 192 cores).
	ExaMLSeconds, RAxMLLightSeconds float64
	// SpeedupRatio is RAxMLLightSeconds / ExaMLSeconds — the paper's
	// headline "up to 3.2×".
	SpeedupRatio float64
	// ExaMLWall and RAxMLLightWall are the real measured wall times of
	// the scaled runs on this machine.
	ExaMLWall, RAxMLLightWall float64
	// ExaMLBytes and RAxMLLightBytes are the metered traffic volumes.
	ExaMLBytes, RAxMLLightBytes int64
	// Iterations is the search-iteration count until convergence (the
	// paper's 23-vs-17 mechanism).
	Iterations int
}

// Fig4Result reproduces Figure 4(a) (joint branch lengths) or 4(b)
// (per-partition branch lengths, -M).
type Fig4Result struct {
	// PerPartition is false for 4(a), true for 4(b).
	PerPartition bool
	// Points holds all measurements, Γ first then PSR, ascending
	// partition counts.
	Points []Fig4Point
	// ProjectRanks is the projection scale.
	ProjectRanks int
	// PaperClaims summarizes the paper's reference ratios for this
	// sub-figure.
	PaperClaims string
}

// Fig4 runs the partition-count sweep under both engines and both rate
// models.
func Fig4(sc Scale, perPartition bool) (*Fig4Result, error) {
	out := &Fig4Result{
		PerPartition: perPartition,
		ProjectRanks: sc.ProjectRanks,
	}
	if perPartition {
		out.PaperClaims = "paper 4(b): ExaML ≥ RAxML-Light almost everywhere; best 1.7× (Γ, 100 parts), 2.0× (PSR, 1000 parts)"
	} else {
		out.PaperClaims = "paper 4(a): ~parity/1.3× at 10–100 parts; 3.1×/2.6× (Γ) and 3.2×/2.7× (PSR) at 500/1000 parts"
	}
	hw := cluster.MagnyCours()
	// Extrapolation to paper dimensions before projection: compute scales
	// with patterns × inner vertices, collective counts with the edge
	// count (regions per sweep ∝ 2n−3), descriptor/parameter payloads are
	// already at the true per-partition granularity.
	innerF := float64(sc.Fig4PaperTaxa-2) / float64(sc.Taxa-2)
	edgeF := float64(2*sc.Fig4PaperTaxa-3) / float64(2*sc.Taxa-3)
	for _, psr := range []bool{false, true} {
		for _, p := range sc.PartCounts {
			d, err := genPartitioned(sc, p)
			if err != nil {
				return nil, err
			}
			patF := float64(sc.Fig4PaperPatternsPerGene*p) / float64(d.TotalPatterns())
			computeF := patF * innerF
			cfg := search.Config{
				Het:                  hetOf(psr),
				PerPartitionBranches: perPartition,
				Seed:                 sc.Seed,
				MaxIterations:        sc.MaxIterations,
			}
			runs, err := runBoth(d, cfg, sc.Ranks)
			if err != nil {
				return nil, fmt.Errorf("fig4 p=%d psr=%v: %w", p, psr, err)
			}
			dtr := runs.Dec.Trace()
			ftr := runs.Fj.Trace()
			for _, tr := range []*cluster.Trace{&dtr, &ftr} {
				tr.TotalColumns = int64(float64(tr.TotalColumns) * computeF)
				tr.MaxRankColumns = int64(float64(tr.MaxRankColumns) * computeF)
				tr.CLVBytesTotal *= patF * innerF
				for c := range tr.Comm.Ops {
					tr.Comm.Ops[c] = int64(float64(tr.Comm.Ops[c]) * edgeF)
					tr.Comm.Bytes[c] = int64(float64(tr.Comm.Bytes[c]) * edgeF)
				}
			}
			pd, err := cluster.Project(dtr, sc.ProjectRanks, hw)
			if err != nil {
				return nil, err
			}
			pf, err := cluster.Project(ftr, sc.ProjectRanks, hw)
			if err != nil {
				return nil, err
			}
			out.Points = append(out.Points, Fig4Point{
				Partitions:        p,
				PSR:               psr,
				ExaMLSeconds:      pd.TotalSec,
				RAxMLLightSeconds: pf.TotalSec,
				SpeedupRatio:      pf.TotalSec / pd.TotalSec,
				ExaMLWall:         runs.Dec.Wall.Seconds(),
				RAxMLLightWall:    runs.Fj.Wall.Seconds(),
				ExaMLBytes:        runs.Dec.Comm.TotalBytes(),
				RAxMLLightBytes:   runs.Fj.Comm.TotalBytes(),
				Iterations:        runs.DecIter,
			})
		}
	}
	return out, nil
}

// Render prints the sweep as text series.
func (f *Fig4Result) Render() string {
	var b strings.Builder
	name := "Figure 4(a) — joint branch lengths"
	if f.PerPartition {
		name = "Figure 4(b) — per-partition branch lengths (-M)"
	}
	fmt.Fprintf(&b, "%s\n(projected to %d ranks on the paper's cluster model; ratio = RAxML-Light / ExaML)\n%s\n\n",
		name, f.ProjectRanks, f.PaperClaims)
	fmt.Fprintf(&b, "%-6s %6s | %12s %12s %7s | %10s %10s | %9s %9s | %5s\n",
		"model", "parts", "ExaML(s)", "RAxML-L(s)", "ratio", "ExaML(B)", "RAxML(B)", "wallE(s)", "wallR(s)", "iters")
	for _, pt := range f.Points {
		model := "GAMMA"
		if pt.PSR {
			model = "PSR"
		}
		fmt.Fprintf(&b, "%-6s %6d | %12.2f %12.2f %6.2fx | %10d %10d | %9.2f %9.2f | %5d\n",
			model, pt.Partitions,
			pt.ExaMLSeconds, pt.RAxMLLightSeconds, pt.SpeedupRatio,
			pt.ExaMLBytes, pt.RAxMLLightBytes,
			pt.ExaMLWall, pt.RAxMLLightWall, pt.Iterations)
	}
	return b.String()
}
