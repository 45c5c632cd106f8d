package forkjoin

import (
	"math"
	"testing"

	"repro/internal/enginecore"
	"repro/internal/model"
	"repro/internal/search"
)

// TestIncrementalMatchesForcedFull mirrors the decentral-engine test of
// the same name: under the fork-join engine (master searcher, broadcast
// descriptors) the default incremental traversal reuse must reproduce
// the ForceFullTraversals trajectory bit-for-bit while scheduling fewer
// CLV recomputations.
func TestIncrementalMatchesForcedFull(t *testing.T) {
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		d := makeDataset(t, 12, 2, 70, 9)
		cfg := search.Config{Het: het, Seed: 17, MaxIterations: 3}

		forcedCfg := cfg
		forcedCfg.ForceFullTraversals = true
		forced, fStats, err := Run(d, enginecore.RunConfig{Search: forcedCfg, Ranks: 3})
		if err != nil {
			t.Fatalf("%v forced: %v", het, err)
		}
		inc, iStats, err := Run(d, enginecore.RunConfig{Search: cfg, Ranks: 3})
		if err != nil {
			t.Fatalf("%v incremental: %v", het, err)
		}
		if math.Float64bits(inc.LnL) != math.Float64bits(forced.LnL) {
			t.Errorf("%v: lnL %.17g not bit-identical to forced-full %.17g", het, inc.LnL, forced.LnL)
		}
		if inc.Tree.Newick() != forced.Tree.Newick() {
			t.Errorf("%v: topology differs from forced-full run", het)
		}
		if inc.Iterations != forced.Iterations {
			t.Errorf("%v: %d iterations vs forced-full %d", het, inc.Iterations, forced.Iterations)
		}
		if iStats.TotalColumns >= fStats.TotalColumns {
			t.Errorf("%v: incremental scheduled %d columns, forced %d — no work was reused",
				het, iStats.TotalColumns, fStats.TotalColumns)
		}
	}
}
