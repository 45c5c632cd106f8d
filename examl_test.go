package examl

import (
	"bytes"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/checkpoint"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	d, err := Simulate(10, 3, 60, 42)
	if err != nil {
		t.Fatal(err)
	}
	if d.NTaxa() != 10 || d.NPartitions() != 3 || d.Sites() != 180 {
		t.Fatalf("dataset dims: %d taxa, %d parts, %d sites", d.NTaxa(), d.NPartitions(), d.Sites())
	}
	if d.Patterns() == 0 || d.Patterns() > d.Sites() {
		t.Fatalf("patterns = %d", d.Patterns())
	}
	res, err := Infer(d, Config{Ranks: 3, MaxIterations: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.LogLikelihood >= 0 || math.IsNaN(res.LogLikelihood) {
		t.Fatalf("lnL = %g", res.LogLikelihood)
	}
	if !strings.HasSuffix(res.Tree, ";") {
		t.Fatalf("tree not Newick: %q", res.Tree[:40])
	}
	if res.Comm.TotalOps == 0 {
		t.Fatal("no communication metered")
	}
	if res.Ranks != 3 {
		t.Fatalf("ranks = %d", res.Ranks)
	}
	// Projection must work and shrink compute time with more ranks.
	p1, err := res.Project(48)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := res.Project(480)
	if err != nil {
		t.Fatal(err)
	}
	if p2.ComputeSeconds >= p1.ComputeSeconds {
		t.Fatal("projection compute time did not shrink with ranks")
	}
	if p1.Nodes != 1 || p2.Nodes != 10 {
		t.Fatalf("nodes: %d, %d", p1.Nodes, p2.Nodes)
	}
}

func TestSchemesAgreeViaPublicAPI(t *testing.T) {
	d, err := Simulate(8, 2, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Ranks: 2, MaxIterations: 1, Seed: 5}
	dec, err := Infer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheme = ForkJoin
	fj, err := Infer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(dec.LogLikelihood) != math.Float64bits(fj.LogLikelihood) {
		t.Fatalf("schemes disagree: %.15g vs %.15g", dec.LogLikelihood, fj.LogLikelihood)
	}
	rf, err := RobinsonFoulds(dec.Tree, fj.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if rf != 0 {
		t.Fatalf("RF distance between scheme results = %d", rf)
	}
	if fj.Comm.TotalBytes <= dec.Comm.TotalBytes {
		t.Fatalf("fork-join bytes %d ≤ decentralized %d", fj.Comm.TotalBytes, dec.Comm.TotalBytes)
	}
}

func TestThreadsViaPublicAPI(t *testing.T) {
	// Intra-rank threading (Config.Threads) must be invisible in the
	// results: bit-identical likelihood and topology under both schemes.
	// (Four PSR ranks × three threads are covered by the decentral
	// package's TestThreadedHybridSearch.)
	d, err := Simulate(10, 2, 700, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{Decentralized, ForkJoin} {
		cfg := Config{Scheme: scheme, Ranks: 2, MaxIterations: 1, Seed: 9}
		ref, err := Infer(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Threads = 4
		got, err := Infer(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.LogLikelihood) != math.Float64bits(ref.LogLikelihood) {
			t.Errorf("%v: threaded lnL %.17g != serial %.17g", scheme, got.LogLikelihood, ref.LogLikelihood)
		}
		if got.Tree != ref.Tree {
			t.Errorf("%v: threaded topology differs from serial", scheme)
		}
	}
}

func TestBinaryRoundTripViaPublicAPI(t *testing.T) {
	d, err := Simulate(6, 2, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Patterns() != d.Patterns() || back.NTaxa() != d.NTaxa() {
		t.Fatal("binary round trip changed the dataset")
	}
}

func TestLoadPhylipWithPartitions(t *testing.T) {
	phy := `4 8
A ACGTACGT
B ACGTACGA
C ACGAACGT
D ACGAACGA
`
	scheme := "DNA, left = 1-4\nDNA, right = 5-8\n"
	d, err := LoadPhylip(strings.NewReader(phy), scheme)
	if err != nil {
		t.Fatal(err)
	}
	if d.NPartitions() != 2 || d.NTaxa() != 4 {
		t.Fatalf("dims: %d parts, %d taxa", d.NPartitions(), d.NTaxa())
	}
	if _, err := LoadPhylip(strings.NewReader("garbage"), ""); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadPhylip(strings.NewReader(phy), "DNA, x = 1-99"); err == nil {
		t.Error("out-of-range partition accepted")
	}
}

func TestCheckpointRestartViaPublicAPI(t *testing.T) {
	d, err := Simulate(8, 2, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	first, err := Infer(d, Config{Ranks: 2, MaxIterations: 2, Seed: 3, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	resumed, err := Infer(d, Config{Ranks: 2, MaxIterations: 4, Seed: 3, RestorePath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.LogLikelihood < first.LogLikelihood-1e-6 {
		t.Fatalf("resume regressed: %f < %f", resumed.LogLikelihood, first.LogLikelihood)
	}
	// Restoring against a different dataset must fail.
	other, err := Simulate(9, 2, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Infer(other, Config{Ranks: 1, RestorePath: ckpt}); err == nil {
		t.Error("checkpoint accepted for wrong dataset")
	}
}

// TestUnwritableCheckpointFailsTheJob: a checkpoint path that cannot be
// written fails the run — before the search when the path is bad from the
// start, with the first failed write when it goes bad later (the
// directory is moved away after iteration 1: mode bits would not stop a
// test run as root) — under every entry point that takes the path.
func TestUnwritableCheckpointFailsTheJob(t *testing.T) {
	d, err := Simulate(8, 2, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]func(Config) error{
		"Infer": func(cfg Config) error {
			_, err := Infer(d, cfg)
			return err
		},
		"InferWithFailures": func(cfg Config) error {
			_, _, err := InferWithFailures(d, cfg, FailurePlan{FailRanks: 1, FailAfterIteration: 2})
			return err
		},
		"InferNet": func(cfg Config) error {
			_, err := InferNet(d, cfg, NetConfig{Rank: 0, Size: 1, Addr: "127.0.0.1:0", Nonce: 7})
			return err
		},
	}
	for name, run := range entries {
		missing := filepath.Join(t.TempDir(), "no", "such", "dir", "x.ckpt")
		var progressed atomic.Bool
		err := run(Config{Ranks: 2, MaxIterations: 3, Seed: 3, CheckpointPath: missing,
			OnProgress: func(int, float64) { progressed.Store(true) }})
		if err == nil || !strings.Contains(err.Error(), "examl: checkpoint "+missing) {
			t.Errorf("%s: nonexistent directory: got %v, want an error naming the checkpoint path", name, err)
		}
		if progressed.Load() {
			t.Errorf("%s: the search ran before the bad path was reported", name)
		}

		dir := filepath.Join(t.TempDir(), "ckpt")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		ckpt := filepath.Join(dir, "x.ckpt")
		var once sync.Once
		err = run(Config{Ranks: 2, MaxIterations: 3, Seed: 3, CheckpointPath: ckpt,
			OnProgress: func(iter int, _ float64) {
				once.Do(func() {
					if _, err := os.Stat(ckpt); err != nil {
						t.Errorf("%s: no checkpoint after iteration %d: %v", name, iter, err)
					}
					if err := os.Rename(dir, dir+".moved"); err != nil {
						t.Error(err)
					}
				})
			}})
		if err == nil || !strings.Contains(err.Error(), "examl: checkpoint "+ckpt) {
			t.Errorf("%s: directory gone after iteration 1: got %v, want an error naming the checkpoint path", name, err)
		}
	}
}

// TestCheckpointWrittenOncePerIteration: every replica of an in-process
// world calls the iteration hook, but the writer snapshots and writes
// only the first call of a newer iteration. Three writes of one
// iteration leave the first file in place; the next iteration replaces
// it.
func TestCheckpointWrittenOncePerIteration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	w := &checkpointWriter{path: path}
	snapshots := 0
	snapshot := func(iter int) *checkpoint.State {
		snapshots++
		return &checkpoint.State{Iteration: iter}
	}
	w.write(1, snapshot)
	first, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		w.write(1, snapshot)
	}
	if again, err := os.Stat(path); err != nil || !os.SameFile(first, again) {
		t.Fatalf("repeated writes of iteration 1 replaced the file (%v)", err)
	}
	w.write(2, snapshot)
	if next, err := os.Stat(path); err != nil || os.SameFile(first, next) {
		t.Fatalf("the write of iteration 2 left iteration 1's file in place (%v)", err)
	}
	if snapshots != 2 || w.failure() != nil {
		t.Fatalf("%d snapshots taken for 2 iterations (failure %v)", snapshots, w.failure())
	}
}

func TestPSRAndPerPartitionViaPublicAPI(t *testing.T) {
	d, err := Simulate(8, 2, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Infer(d, Config{
		Ranks:                     2,
		RateModel:                 PSR,
		PerPartitionBranchLengths: true,
		MaxIterations:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LogLikelihood >= 0 {
		t.Fatalf("lnL = %g", res.LogLikelihood)
	}
}

func TestStringers(t *testing.T) {
	if Decentralized.String() != "decentralized" || ForkJoin.String() != "fork-join" {
		t.Error("Scheme.String broken")
	}
	if GAMMA.String() != "GAMMA" || PSR.String() != "PSR" {
		t.Error("RateModel.String broken")
	}
}

func TestParsimonyStartBeatsRandomStart(t *testing.T) {
	d, err := Simulate(12, 2, 400, 33)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Ranks: 2, MaxIterations: 1, Seed: 4, SkipTopology: true}
	random, err := Infer(d, base)
	if err != nil {
		t.Fatal(err)
	}
	withPars := base
	withPars.ParsimonyStartTree = true
	pars, err := Infer(d, withPars)
	if err != nil {
		t.Fatal(err)
	}
	// With topology moves disabled, the starting topology decides the
	// score: the parsimony tree must be better on signal-rich data.
	if pars.LogLikelihood <= random.LogLikelihood {
		t.Fatalf("parsimony start lnL %f not better than random start %f",
			pars.LogLikelihood, random.LogLikelihood)
	}
}

func TestBootstrapViaPublicAPI(t *testing.T) {
	d, err := Simulate(8, 2, 250, 55)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Bootstrap(d, Config{Ranks: 2, MaxIterations: 2, Seed: 9}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replicates != 5 || len(res.ReplicateTrees) != 5 {
		t.Fatalf("replicates = %d/%d", res.Replicates, len(res.ReplicateTrees))
	}
	// 8 taxa → 5 non-trivial bipartitions.
	if len(res.Supports) != 5 {
		t.Fatalf("%d supports", len(res.Supports))
	}
	for i, s := range res.Supports {
		if s < 0 || s > 1 {
			t.Fatalf("support %d = %g", i, s)
		}
	}
	if !strings.HasSuffix(res.BestTree, ");") {
		t.Fatalf("annotated tree malformed: %s", res.BestTree)
	}
	// On strong-signal simulated data, at least one split should have
	// full support.
	max := 0.0
	for _, s := range res.Supports {
		if s > max {
			max = s
		}
	}
	if max < 0.6 {
		t.Errorf("no well-supported split on clean data: %v", res.Supports)
	}
	if _, err := Bootstrap(d, Config{Ranks: 1}, 0); err == nil {
		t.Error("0 replicates accepted")
	}
}

func TestSubstitutionModelsViaPublicAPI(t *testing.T) {
	d, err := Simulate(8, 1, 400, 66)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Ranks: 2, MaxIterations: 1, Seed: 2, SkipTopology: true}
	lnls := map[SubstitutionModel]float64{}
	for _, m := range []SubstitutionModel{JCModel, K80Model, HKYModel, GTRModel} {
		cfg := base
		cfg.Substitution = m
		res, err := Infer(d, cfg)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		lnls[m] = res.LogLikelihood
	}
	// Nested models: each generalization can only improve the maximized
	// likelihood (up to optimizer slack).
	const slack = 0.5
	if !(lnls[K80Model] >= lnls[JCModel]-slack) {
		t.Errorf("K80 (%f) worse than nested JC (%f)", lnls[K80Model], lnls[JCModel])
	}
	if !(lnls[GTRModel] >= lnls[HKYModel]-slack) {
		t.Errorf("GTR (%f) worse than nested HKY (%f)", lnls[GTRModel], lnls[HKYModel])
	}
	if !(lnls[GTRModel] >= lnls[JCModel]-slack) {
		t.Errorf("GTR (%f) worse than nested JC (%f)", lnls[GTRModel], lnls[JCModel])
	}
	if JCModel.String() != "JC" || GTRModel.String() != "GTR" {
		t.Error("SubstitutionModel.String broken")
	}
}

// TestInferWithFailuresHonoursConfig: a failure-injected run is
// configured by the same function as every other entry point, so the
// options it used to drop — here the progress hook and the checkpoint
// file — act in both of its phases, and its Result carries the
// recovered world's accounting like any other Result.
func TestInferWithFailuresHonoursConfig(t *testing.T) {
	d, err := Simulate(8, 2, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := map[int]int{} // iteration → replicas that reported it
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	res, rep, err := InferWithFailures(d, Config{
		Ranks:          3,
		MaxIterations:  3,
		Epsilon:        1e-9, // keep iterating: phase 2 must get to report
		Seed:           5,
		CheckpointPath: ckpt,
		OnProgress: func(iter int, _ float64) {
			mu.Lock()
			calls[iter]++
			mu.Unlock()
		},
	}, FailurePlan{FailRanks: 1, FailAfterIteration: 1})
	if err != nil {
		t.Fatal(err)
	}
	if calls[1] != 3 {
		t.Errorf("iteration 1 (before the failure, 3 replicas) reported %d times", calls[1])
	}
	if rep.ResumedFromIteration != 1 || res.Iterations < 2 || calls[res.Iterations] != rep.SurvivorRanks {
		t.Errorf("resumed from %d, finished at %d, progress calls by iteration %v: the %d survivors' iterations went unreported",
			rep.ResumedFromIteration, res.Iterations, calls, rep.SurvivorRanks)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Errorf("CheckpointPath was not written: %v", err)
	}
	if res.Ranks != 2 || res.Comm.TotalOps == 0 || res.WallSeconds <= 0 {
		t.Errorf("result of the recovered run: ranks %d, %d collectives, %g s", res.Ranks, res.Comm.TotalOps, res.WallSeconds)
	}
}

// TestDocsCiteTestsThatExist collects every back-quoted test, benchmark
// and fuzz target name the reference docs cite (README.md, DESIGN.md,
// EXPERIMENTS.md, docs/*.md; a trailing * makes it a prefix) and fails
// unless each is a func of some _test.go in the repository. CHANGES.md and
// ROADMAP.md are history and are not scanned.
func TestDocsCiteTestsThatExist(t *testing.T) {
	var funcs []string
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			funcs = append(funcs, m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	cite := regexp.MustCompile("`" + `((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(\*?)`)
	cited := 0
	for _, doc := range append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, docs...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllStringSubmatch(string(text), -1) {
			cited++
			found := false
			for _, f := range funcs {
				found = found || f == m[1] || m[2] == "*" && strings.HasPrefix(f, m[1])
			}
			if !found {
				t.Errorf("%s cites `%s%s`, which no _test.go declares", doc, m[1], m[2])
			}
		}
	}
	if cited == 0 {
		t.Fatal("found no cited test names at all")
	}
}
