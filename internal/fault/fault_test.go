package fault

import (
	"math"
	"testing"

	"repro/internal/decentral"
	"repro/internal/enginecore"
	"repro/internal/model"
	"repro/internal/msa"
	"repro/internal/search"
	"repro/internal/seqgen"
)

func makeDataset(t testing.TB, nTaxa, nParts, geneLen int, seed int64) *msa.Dataset {
	t.Helper()
	res, err := seqgen.Generate(seqgen.PartitionedGenes(nTaxa, nParts, geneLen, seed))
	if err != nil {
		t.Fatal(err)
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFaultRecoveryCompletes(t *testing.T) {
	d := makeDataset(t, 9, 2, 50, 1)
	res, _, rep, err := Run(d, Plan{
		Run:                enginecore.RunConfig{Ranks: 6, Search: search.Config{Het: model.Gamma, Seed: 3, MaxIterations: 3}},
		FailRanks:          2,
		FailAfterIteration: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SurvivorRanks != 4 {
		t.Fatalf("survivors = %d", rep.SurvivorRanks)
	}
	if rep.CheckpointIteration != 1 {
		t.Fatalf("checkpoint iteration = %d", rep.CheckpointIteration)
	}
	if math.IsNaN(res.LnL) || res.LnL >= 0 {
		t.Fatalf("lnL = %g", res.LnL)
	}
	if err := res.Tree.Check(); err != nil {
		t.Fatal(err)
	}
	// Recovery must not lose progress: the final likelihood is at least
	// the checkpointed one (modulo PSR re-derivation, not used here).
	if res.LnL < rep.CheckpointLnL-1e-6 {
		t.Fatalf("recovered run regressed: %f < checkpoint %f", res.LnL, rep.CheckpointLnL)
	}
}

func TestFaultRecoveryMatchesUninterrupted(t *testing.T) {
	// A failure-free run and a failure-injected run with the same total
	// iteration budget should land in the same likelihood ballpark (the
	// trajectories diverge slightly because summation order changes with
	// the rank count — exactly as on a real cluster).
	d := makeDataset(t, 8, 2, 40, 2)
	cfg := search.Config{Het: model.Gamma, Seed: 9, MaxIterations: 3}
	clean, _, err := decentral.Run(d, enginecore.RunConfig{Search: cfg, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	faulty, _, _, err := Run(d, Plan{
		Run:                enginecore.RunConfig{Ranks: 4, Search: cfg},
		FailRanks:          1,
		FailAfterIteration: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(clean.LnL-faulty.LnL) > 1e-3*math.Abs(clean.LnL) {
		t.Fatalf("recovered lnL %f far from uninterrupted %f", faulty.LnL, clean.LnL)
	}
}

func TestFaultPSRRecovery(t *testing.T) {
	d := makeDataset(t, 8, 2, 30, 4)
	res, _, _, err := Run(d, Plan{
		Run:                enginecore.RunConfig{Ranks: 4, Search: search.Config{Het: model.PSR, Seed: 5, MaxIterations: 2}},
		FailRanks:          2,
		FailAfterIteration: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LnL >= 0 {
		t.Fatalf("lnL = %g", res.LnL)
	}
}

func TestFaultPlanValidation(t *testing.T) {
	d := makeDataset(t, 8, 2, 30, 6)
	if _, _, _, err := Run(d, Plan{Run: enginecore.RunConfig{Ranks: 1}, FailRanks: 1}); err == nil {
		t.Error("1-rank plan accepted")
	}
	if _, _, _, err := Run(d, Plan{Run: enginecore.RunConfig{Ranks: 4}, FailRanks: 4}); err == nil {
		t.Error("all-ranks failure accepted")
	}
	if _, _, _, err := Run(d, Plan{Run: enginecore.RunConfig{Ranks: 4}, FailRanks: 0}); err == nil {
		t.Error("zero-failure plan accepted")
	}
}
