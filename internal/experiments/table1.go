package experiments

import (
	"fmt"
	"strings"

	"repro/internal/enginecore"
	"repro/internal/forkjoin"
	"repro/internal/mpi"
	"repro/internal/search"
)

// Table1Column is one of the four configurations of the paper's Table I.
type Table1Column struct {
	// Name labels the configuration as in the paper.
	Name string
	// PSR and PerPartition select the configuration.
	PSR, PerPartition bool
	// SharePercent is the byte share per traffic class, in the paper's
	// row order: branch length, per-site/per-partition likelihoods,
	// model parameters, traversal descriptor.
	SharePercent [4]float64
	// Regions is the total number of parallel regions triggered.
	Regions int64
	// TotalBytes is the total payload volume.
	TotalBytes int64
	// ImbalanceRatio is the measured per-rank load imbalance (max/mean
	// kernel time) and CommFraction the measured collective share of the
	// run — telemetry columns the paper reports qualitatively.
	ImbalanceRatio, CommFraction float64
	// PaperShare are the paper's percentages for the same configuration.
	PaperShare [4]float64
	// PaperRegionsM and PaperMB are the paper's absolute values
	// (millions of regions, megabytes).
	PaperRegionsM, PaperMB float64
}

// Table1Result is the full reproduction of Table I.
type Table1Result struct {
	// Columns holds the four configurations in paper order.
	Columns []Table1Column
	// Partitions and Taxa echo the dataset shape used.
	Partitions, Taxa int
}

// paper's Table I reference values (Γ/per-part, Γ/joint, PSR/per-part,
// PSR/joint); share rows ordered: branch, likelihood, params, descriptor.
var table1Paper = []struct {
	name            string
	psr, perPart    bool
	share           [4]float64
	regionsM, bytes float64
}{
	{"Gamma, per-partition branches", false, true, [4]float64{29.22, 0.25, 0.33, 70.20}, 5.8, 2841},
	{"Gamma, joint branches", false, false, [4]float64{1.17, 0.40, 0.52, 97.91}, 1.7, 1809},
	{"PSR, per-partition branches", true, true, [4]float64{68.16, 0.51, 0.99, 30.34}, 8.3, 1763},
	{"PSR, joint branches", true, false, [4]float64{1.11, 0.39, 2.78, 95.72}, 0.6, 626},
}

// Table1 reproduces Table I: it runs the fork-join scheme on the
// 10-partition (first PartCounts entry) dataset under the four
// configurations and decomposes the metered traffic per class.
func Table1(sc Scale) (*Table1Result, error) {
	p := sc.PartCounts[0]
	d, err := genPartitioned(sc, p)
	if err != nil {
		return nil, err
	}
	out := &Table1Result{Partitions: p, Taxa: sc.Taxa}
	for _, ref := range table1Paper {
		cfg := search.Config{
			Het:                  hetOf(ref.psr),
			PerPartitionBranches: ref.perPart,
			Seed:                 sc.Seed,
			MaxIterations:        sc.MaxIterations,
		}
		tcol := newTelemetry(sc.Ranks)
		_, stats, err := forkjoin.Run(d, enginecore.RunConfig{Search: cfg, Ranks: sc.Ranks, Telemetry: tcol})
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", ref.name, err)
		}
		rep := stats.TelemetryReport(tcol, 1)
		s := stats.Comm
		// Match the paper's accounting: only likelihood-relevant classes
		// (exclude our control opcodes, which stand in for MPI tags).
		classes := []mpi.CommClass{
			mpi.ClassBranchLength,
			mpi.ClassLikelihoodEval,
			mpi.ClassModelParams,
			mpi.ClassTraversal,
		}
		var total int64
		for _, c := range classes {
			total += s.Bytes[c]
		}
		col := Table1Column{
			Name:           ref.name,
			PSR:            ref.psr,
			PerPartition:   ref.perPart,
			Regions:        s.TotalRegions(),
			TotalBytes:     total,
			ImbalanceRatio: rep.ImbalanceRatio,
			CommFraction:   rep.CommFraction,
			PaperShare:     ref.share,
			PaperRegionsM:  ref.regionsM,
			PaperMB:        ref.bytes,
		}
		for i, c := range classes {
			if total > 0 {
				col.SharePercent[i] = 100 * float64(s.Bytes[c]) / float64(total)
			}
		}
		out.Columns = append(out.Columns, col)
	}
	return out, nil
}

// Render prints the table in the paper's layout with paper-vs-measured
// rows.
func (t *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — fork-join MPI traffic by parallel-region class\n")
	fmt.Fprintf(&b, "(dataset: %d taxa, %d partitions; measured = this reproduction, paper = Stamatakis & Aberer 2013)\n\n", t.Taxa, t.Partitions)
	rows := []string{
		"branch length optimization [%]",
		"per-site/per-partition likelihoods [%]",
		"model parameters [%]",
		"traversal descriptor [%]",
	}
	fmt.Fprintf(&b, "%-42s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " | %-28s", c.Name)
	}
	b.WriteString("\n")
	for ri, rn := range rows {
		fmt.Fprintf(&b, "%-42s", rn)
		for _, c := range t.Columns {
			fmt.Fprintf(&b, " | meas %6.2f  paper %6.2f  ", c.SharePercent[ri], c.PaperShare[ri])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-42s", "# parallel regions")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " | meas %8d  paper %5.1fM ", c.Regions, c.PaperRegionsM)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-42s", "# bytes communicated")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " | meas %7.2fMB paper %5.0fMB", float64(c.TotalBytes)/1e6, c.PaperMB)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-42s", "measured load imbalance (max/mean)")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " | %-28s", fmt.Sprintf("%.3f", c.ImbalanceRatio))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-42s", "measured comm fraction")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " | %-28s", fmt.Sprintf("%.3f", c.CommFraction))
	}
	b.WriteString("\n")
	return b.String()
}
