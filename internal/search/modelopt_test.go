package search_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/msa"
	"repro/internal/search"
	"repro/internal/seqgen"
	"repro/internal/traversal"
)

// Masked probes against independent oracles. A probe that covers only the
// partitions whose candidate changed may alter what the search costs and
// nothing else: not a parameter, not a likelihood bit, and — the part a
// converged partition could get wrong — not the state the engine is left
// in when the round returns.

// modelDataset is 10 taxa × {900, 150, 90, 60} bp with different shapes:
// per rank of two, one partition of two thread blocks on the worker pool
// and three in the fused batch, whose searches end at different steps.
func modelDataset(t testing.TB) *msa.Dataset {
	t.Helper()
	res, err := seqgen.Generate(seqgen.Config{
		NTaxa: 10,
		Specs: []seqgen.Spec{
			{Name: "big", NSites: 900, Alpha: 0.5, GapProb: 0.02},
			{Name: "mid", NSites: 150, Alpha: 2.5, GapProb: 0.02},
			{Name: "small0", NSites: 90, Alpha: 0.9, GapProb: 0.01},
			{Name: "small1", NSites: 60, Alpha: 0.3, GapProb: 0.01},
		},
		Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// probeWidths counts the model-parameter probes an engine receives and
// how many of them left a partition out; with strip set it also removes
// the mask, so the engine underneath evaluates every partition every time
// — the unmasked search.
type probeWidths struct {
	search.Engine
	strip          bool
	probes, narrow int
}

func (p *probeWidths) Evaluate(d *traversal.Descriptor) []float64 {
	if d.Active == nil {
		return p.Engine.Evaluate(d)
	}
	p.probes++
	for _, on := range d.Active {
		if !on {
			p.narrow++
			break
		}
	}
	if p.strip {
		full := *d
		full.Active = nil
		d = &full
	}
	return p.Engine.Evaluate(d)
}

// modelRounds is what two model-parameter rounds on the start tree leave
// behind.
type modelRounds struct {
	shared [][]float64
	held   []float64
	narrow int
}

func sameBits(a, b []float64) bool {
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

// twoRounds drives the start of a search — push, evaluate, two model
// rounds — over eng, and then asks the engine itself what state it is in:
// an evaluation that recomputes nothing must return, by bits, what twin
// returns for a forced full traversal under the accepted parameters, and
// that is what the searcher must hold. twin is told every parameter and
// site-rate change the engine is (PSR rates depend on both) and evaluates
// nothing until then.
func twoRounds(t *testing.T, label string, d *msa.Dataset, scfg search.Config, eng, twin search.Engine, strip bool) modelRounds {
	t.Helper()
	counted := &probeWidths{Engine: eng, strip: strip}
	s, err := search.NewSearcher(&mirrorEngine{Engine: counted, twin: twin}, d, scfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Prepare()
	for round := 0; round < 2; round++ {
		if err := s.OptimizeModel(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	out := modelRounds{shared: s.Shared(), held: append([]float64(nil), s.Held()...), narrow: counted.narrow}
	if counted.probes == 0 {
		t.Fatalf("%s: no probe seen", label)
	}

	forced := traversal.Build(s.Tree, s.Tree.Tip(0), true)
	twin.SetShared(out.shared)
	want := append([]float64(nil), twin.Evaluate(forced)...)
	asIs := *forced
	asIs.Steps = make([][]likelihood.Step, len(forced.Steps))
	got := eng.Evaluate(&asIs)
	if !sameBits(got, want) {
		t.Errorf("%s: engine evaluates to %v as the round left it, a forced traversal under the accepted parameters to %v", label, got, want)
	}
	if !sameBits(out.held, want) {
		t.Errorf("%s: searcher holds %v, a forced traversal under the accepted parameters gives %v", label, out.held, want)
	}
	return out
}

// TestMaskedProbesChangeNothingButCost runs the same two model rounds
// masked and unmasked on the real engines — both schemes × Γ/PSR ×
// joint/-M × T∈{1,2}, two ranks — and compares accepted parameters and
// held per-partition likelihoods by bits, and each run's engine state
// with a second engine's forced evaluation.
func TestMaskedProbesChangeNothingButCost(t *testing.T) {
	d := modelDataset(t)
	const ranks = 2
	for _, scheme := range []string{"decentral", "forkjoin"} {
		for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
			for _, perPart := range []bool{false, true} {
				for _, threads := range []int{1, 2} {
					scfg := search.Config{Het: het, PerPartitionBranches: perPart, Seed: 5}
					var results [2][ranks]modelRounds
					for run, strip := range []bool{false, true} {
						label := fmt.Sprintf("%s/%v/M=%v/T%d/unmasked=%v", scheme, het, perPart, threads, strip)
						withTwin(t, d, scheme, het, perPart, threads, func(rank int, eng, twin search.Engine) {
							results[run][rank] = twoRounds(t, label, d, scfg, eng, twin, strip)
						})
					}
					label := fmt.Sprintf("%s/%v/M=%v/T%d", scheme, het, perPart, threads)
					masked, unmasked := results[0][0], results[1][0]
					if masked.narrow == 0 {
						t.Errorf("%s: every probe covered every partition", label)
					}
					if !sameBits(masked.held, unmasked.held) {
						t.Errorf("%s: masked search holds %v, unmasked %v", label, masked.held, unmasked.held)
					}
					for p := range masked.shared {
						if !sameBits(masked.shared[p], unmasked.shared[p]) {
							t.Errorf("%s: partition %d accepted %v masked, %v unmasked", label, p, masked.shared[p], unmasked.shared[p])
						}
					}
					if scheme == "decentral" && !sameBits(results[0][1].held, masked.held) {
						t.Errorf("%s: replicas hold different likelihoods", label)
					}
				}
			}
		}
	}
}

// TestModelRoundLeavesSettledCLVs looks inside: after every round, every
// CLV slot of every kernel holds the bytes a forced full traversal under
// the accepted parameters computes on a twin enginecore.Local. A
// partition that dropped out of the probes early, or whose last probe was
// not its best, must not be left with the vectors of the value it last
// probed.
func TestModelRoundLeavesSettledCLVs(t *testing.T) {
	d := modelDataset(t)
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		for _, perPart := range []bool{false, true} {
			for _, threads := range []int{1, 2} {
				label := fmt.Sprintf("%v/M=%v/T%d", het, perPart, threads)
				eng := newLocalEngine(t, d, het, perPart, threads)
				twin := newLocalEngine(t, d, het, perPart, 1)
				counted := &probeWidths{Engine: eng}
				s, err := search.NewSearcher(&mirrorEngine{Engine: counted, twin: twin}, d, search.Config{Het: het, PerPartitionBranches: perPart, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				s.Prepare()
				for round := 0; round < 3; round++ {
					if err := s.OptimizeModel(); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					twin.SetShared(s.Shared())
					want := twin.Evaluate(traversal.Build(s.Tree, s.Tree.Tip(0), true))
					if !sameBits(s.Held(), want) {
						t.Errorf("%s round %d: searcher holds %v, forced evaluation %v", label, round, s.Held(), want)
					}
					for ki, k := range eng.l.Kernels {
						for slot := 0; slot < eng.l.NInner; slot++ {
							if got, want := k.CLVDigest(slot), twin.l.Kernels[ki].CLVDigest(slot); got != want {
								t.Fatalf("%s round %d: partition %d slot %d: digest %x, forced traversal under the accepted parameters %x", label, round, eng.l.PartIdx[ki], slot, got, want)
							}
						}
					}
				}
				if counted.narrow == 0 {
					t.Errorf("%s: every probe covered every partition", label)
				}
				eng.Close()
				twin.Close()
			}
		}
	}
}
