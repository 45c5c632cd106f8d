package examl

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/bootstrap"
	"repro/internal/phyrun"
	"repro/internal/tree"
)

// TestBootstrapMatchesFlatOracle checks the orchestrator-backed
// Bootstrap against a hand-rolled flat loop using the same splittable
// per-task seeds: identical reference tree, replicate trees, supports,
// and consensus, bit for bit.
func TestBootstrapMatchesFlatOracle(t *testing.T) {
	d, err := Simulate(8, 2, 200, 71)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Ranks: 1, MaxIterations: 2, Seed: 13}
	const B = 4

	got, err := Bootstrap(d, cfg, B)
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: reference search at cfg.Seed, then each replicate in a
	// flat loop with seeds derived from the campaign plan.
	plan := phyrun.Plan{Seed: cfg.Seed, RandomStarts: 1, Replicates: B, StartSeeds: []int64{cfg.Seed}}
	ref, err := Infer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refTree, err := tree.ParseNewick(ref.Tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	var repTrees []*tree.Tree
	var repNewicks []string
	for _, task := range plan.Tasks() {
		if task.Kind != phyrun.TaskReplicate {
			continue
		}
		rd, err := ResampleDataset(d, task.ResampleSeed)
		if err != nil {
			t.Fatal(err)
		}
		repCfg := cfg
		repCfg.Seed = task.Seed
		res, err := Infer(rd, repCfg)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := tree.ParseNewick(res.Tree, 1)
		if err != nil {
			t.Fatal(err)
		}
		repTrees = append(repTrees, rt)
		repNewicks = append(repNewicks, res.Tree)
	}
	if !reflect.DeepEqual(got.ReplicateTrees, repNewicks) {
		t.Fatalf("replicate trees differ from the flat oracle:\n%v\n%v", got.ReplicateTrees, repNewicks)
	}
	sup := supportOracle(refTree, repTrees)
	if !reflect.DeepEqual(got.Supports, sup) {
		t.Fatalf("supports differ from the flat oracle: %v vs %v", got.Supports, sup)
	}
	annotated, err := bootstrap.AnnotatedNewick(refTree, sup)
	if err != nil {
		t.Fatal(err)
	}
	if got.BestTree != annotated {
		t.Fatalf("annotated best tree differs:\n%s\n%s", got.BestTree, annotated)
	}
	cons, csup, err := MajorityConsensus(repNewicks, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got.ConsensusTree != cons || !reflect.DeepEqual(got.ConsensusSupports, csup) {
		t.Fatal("consensus differs from the flat oracle")
	}
}

// supportOracle is the brute-force reference for the campaign's
// supports: for each non-trivial split of ref, the fraction of the
// replicates whose Bipartitions() contain it, compared split by split,
// with no split table.
func supportOracle(ref *tree.Tree, reps []*tree.Tree) []float64 {
	refBips := ref.Bipartitions()
	out := make([]float64, len(refBips))
	for i, want := range refBips {
		holding := 0
		for _, r := range reps {
			for _, bp := range r.Bipartitions() {
				if bp.Key() == want.Key() {
					holding++
					break
				}
			}
		}
		out[i] = float64(holding) / float64(len(reps))
	}
	return out
}

// TestBootstrapWorkerCountInvariance: the Workers option changes
// wall-clock behavior only, never results.
func TestBootstrapWorkerCountInvariance(t *testing.T) {
	d, err := Simulate(8, 1, 150, 72)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Ranks: 1, MaxIterations: 2, Seed: 21}
	seq, err := BootstrapWithOptions(d, cfg, 4, BootstrapOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := BootstrapWithOptions(d, cfg, 4, BootstrapOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("results vary with worker count:\n%+v\n%+v", seq, par)
	}
}

// autoStopCfg / autoStopB are the campaign the bootstopping tests run.
var autoStopCfg = Config{Ranks: 1, MaxIterations: 2, Seed: 29, ParsimonyStartTree: true}

const autoStopB = 12

// TestBootstrapAutoStop: on a strong-signal dataset the replicates are
// near-duplicates, so adaptive bootstopping must stop before the fixed
// budget, at a concurrency-independent point, with supports on the
// converged prefix identical to the fixed-B run's over that prefix.
//
// 800 bp, not the 400 bp of TestBootstrapAutoStopNearPolytomy: there one
// of the three inner edges is a near-polytomy, and an early stop would
// only say that the first four searches happened to resolve it alike.
// 800 bp resolves that edge (by 1.6–9.7 log units on eleven of the
// twelve replicate datasets); cutoff 0.15 is between this dataset's
// pseudo-half distance and a divergent one's (see
// TestBootstrapAutoStopDivergent).
func TestBootstrapAutoStop(t *testing.T) {
	d, err := Simulate(6, 1, 800, 75)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := checkAutoStop(t, d)
	if !adaptive.Converged {
		t.Fatal("strong-signal bootstrap did not converge — criterion or data broken")
	}
	if adaptive.Replicates >= autoStopB {
		t.Fatalf("converged run used %d replicates, no fewer than the budget %d", adaptive.Replicates, autoStopB)
	}
}

// parentNearPolytomyLnL are the twelve replicate likelihoods of the
// 6 × 400 bp campaign on commit 96cc69d (PR 13), the last one whose SPR
// trial scores depended on CLV history.
var parentNearPolytomyLnL = [autoStopB]float64{
	-1707.968067, -1578.786474, -1697.582037, -1648.809503,
	-1631.792195, -1568.987080, -1676.225465, -1661.529600,
	-1570.187528, -1663.764027, -1579.023693, -1621.017271,
}

// TestBootstrapAutoStopNearPolytomy keeps the 6 × 400 bp dataset and
// pins why bootstopping must not be expected to stop early on it. The
// replicate searches disagree on one inner edge (on commit 96cc69d too:
// 7 / 4 / 1 of its twelve replicates over the three resolutions), and
// the data cannot tell the resolutions apart: with the topology held
// fixed and everything else optimized, they score within one log unit
// of each other on every replicate dataset. Which one a two-iteration
// search returns depends on its trajectory, which ISSUE 14 moved by
// making trial scores exact. What must hold on such data: the
// bootstopping outcome stays concurrency-independent and
// prefix-consistent, and the replicate searches did not get worse.
func TestBootstrapAutoStopNearPolytomy(t *testing.T) {
	d, err := Simulate(6, 1, 400, 75)
	if err != nil {
		t.Fatal(err)
	}
	checkAutoStop(t, d)

	plan := phyrun.Plan{Seed: autoStopCfg.Seed, ParsimonyStarts: 1, Replicates: autoStopB, StartSeeds: []int64{autoStopCfg.Seed}}
	var repData []*Dataset
	var repLnL []float64
	resolutions := map[string]string{} // split set -> one Newick with it
	splits := bootstrap.NewSplitCounter()
	for _, task := range plan.Tasks() {
		if task.Kind != phyrun.TaskReplicate {
			continue
		}
		rd, err := ResampleDataset(d, task.ResampleSeed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := autoStopCfg
		cfg.Seed, cfg.ParsimonyStartTree = task.Seed, task.Parsimony
		res, err := Infer(rd, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := tree.ParseNewick(res.Tree, 1)
		if err != nil {
			t.Fatal(err)
		}
		i, err := splits.Add(rt)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprint(splits.TreeSplits(i))
		if _, ok := resolutions[key]; !ok {
			resolutions[key] = res.Tree
		}
		repData = append(repData, rd)
		repLnL = append(repLnL, res.LogLikelihood)
	}
	if len(resolutions) < 2 {
		t.Fatalf("replicates agree on one topology: the dataset is not a near-polytomy any more, fold it back into TestBootstrapAutoStop")
	}

	// The data property, independent of any search trajectory.
	for r, rd := range repData {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, nw := range resolutions {
			res, err := Infer(rd, Config{Ranks: 1, MaxIterations: 30, Seed: 1, StartTree: nw, SkipTopology: true})
			if err != nil {
				t.Fatal(err)
			}
			lo, hi = math.Min(lo, res.LogLikelihood), math.Max(hi, res.LogLikelihood)
		}
		if hi-lo >= 1 {
			t.Errorf("replicate %d: the %d resolutions span %.3f log units, not a near-tie", r, len(resolutions), hi-lo)
		}
	}

	// Exact trial scores: higher on nine replicates, equal on two, 0.66
	// lower on one when this was written.
	var gain float64
	for r, lnl := range repLnL {
		if lnl < parentNearPolytomyLnL[r]-1 {
			t.Errorf("replicate %d: lnL %.6f is more than one log unit below the parent commit's %.6f", r, lnl, parentNearPolytomyLnL[r])
		}
		gain += lnl - parentNearPolytomyLnL[r]
	}
	if gain < 0 {
		t.Errorf("replicate likelihoods sum to %.3f log units below the parent commit's", -gain)
	}
}

// checkAutoStop runs the bootstopping campaign on d at two worker counts
// and checks what holds on any data: the outcome is the same at both, the
// replicate trees are a prefix of the fixed-budget run's, and the
// supports are that prefix's. Returns the adaptive result.
func checkAutoStop(t *testing.T, d *Dataset) *BootstrapResult {
	t.Helper()
	cfg := autoStopCfg
	const B = autoStopB

	fixed, err := Bootstrap(d, cfg, B)
	if err != nil {
		t.Fatal(err)
	}

	var prev *BootstrapResult
	for _, workers := range []int{1, 3} {
		adaptive, err := BootstrapWithOptions(d, cfg, B, BootstrapOptions{
			AutoStop: true, AutoStopEvery: 4, AutoStopCutoff: 0.15, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		n := adaptive.Replicates
		if !reflect.DeepEqual(adaptive.ReplicateTrees, fixed.ReplicateTrees[:n]) {
			t.Fatal("converged prefix trees differ from the fixed-B run's prefix")
		}
		// Supports on the prefix: recompute from the fixed run's trees.
		var prefixTrees []*tree.Tree
		for _, nw := range fixed.ReplicateTrees[:n] {
			pt, err := tree.ParseNewick(nw, 1)
			if err != nil {
				t.Fatal(err)
			}
			prefixTrees = append(prefixTrees, pt)
		}
		ref, err := Infer(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := tree.ParseNewick(ref.Tree, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantSup := supportOracle(rt, prefixTrees)
		if !reflect.DeepEqual(adaptive.Supports, wantSup) {
			t.Fatalf("adaptive supports differ from fixed-B prefix supports:\n%v\n%v", adaptive.Supports, wantSup)
		}
		if prev != nil && !reflect.DeepEqual(adaptive, prev) {
			t.Fatal("bootstop outcome depends on worker count")
		}
		prev = adaptive
	}
	return prev
}

// TestBootstrapAutoStopDivergent: a dataset whose replicates disagree
// keeps the criterion above the same cutoff, so the full budget runs.
func TestBootstrapAutoStopDivergent(t *testing.T) {
	d, err := Simulate(8, 1, 400, 75)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Ranks: 1, MaxIterations: 2, Seed: 29, ParsimonyStartTree: true}
	res, err := BootstrapWithOptions(d, cfg, 8, BootstrapOptions{
		AutoStop: true, AutoStopEvery: 4, AutoStopCutoff: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("divergent bootstrap converged below cutoff — criterion too lax")
	}
	if res.Replicates != 8 {
		t.Fatalf("unconverged run used %d replicates, want the full budget 8", res.Replicates)
	}
}

// TestResampleDatasetPure: resampling is a pure function of (dataset,
// seed) — the property that makes local and service replicates
// bit-identical.
func TestResampleDatasetPure(t *testing.T) {
	d, err := Simulate(6, 2, 100, 74)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ResampleDataset(d, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ResampleDataset(d, 42)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Infer(a, Config{Ranks: 1, MaxIterations: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Infer(b, Config{Ranks: 1, MaxIterations: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Tree != rb.Tree || math.Float64bits(ra.LogLikelihood) != math.Float64bits(rb.LogLikelihood) {
		t.Fatal("same (dataset, seed) produced different replicates")
	}
}
