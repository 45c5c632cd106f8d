package phyrun

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// fakeRunner produces deterministic results from task seeds alone, so
// campaign-level properties (ordering, resume, bootstopping) can be
// tested without running real searches. Replicate topologies are picked
// from a fixed set by the resample seed; "dup" mode returns one
// topology for every replicate, modeling a converged dataset.
type fakeRunner struct {
	dup bool

	mu   sync.Mutex
	runs []string // task IDs in execution order
}

var fakeTopologies = []string{
	"((A:1,B:1):1,((C:1,D:1):1,(E:1,F:1):1):1);",
	"((A:1,C:1):1,((B:1,D:1):1,(E:1,F:1):1):1);",
	"((A:1,D:1):1,((B:1,C:1):1,(E:1,F:1):1):1);",
	"((A:1,E:1):1,((B:1,F:1):1,(C:1,D:1):1):1);",
}

func (f *fakeRunner) Run(ctx context.Context, t Task) (*TaskResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.runs = append(f.runs, t.ID())
	f.mu.Unlock()
	pick := t.Seed
	if t.Kind == TaskReplicate {
		pick = t.ResampleSeed
	}
	if f.dup {
		pick = 0
	}
	lnl := -1000 - float64(uint64(t.Seed)%997)/10
	return &TaskResult{
		Tree:          fakeTopologies[uint64(pick)%uint64(len(fakeTopologies))],
		LogLikelihood: lnl,
		LnLBits:       fmt.Sprintf("%x", uint64(t.Seed)),
		Iterations:    3,
	}, nil
}

func (f *fakeRunner) ran() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.runs...)
}

func TestDeriveSeedIndependence(t *testing.T) {
	seen := map[int64]string{}
	for stream := 1; stream <= 4; stream++ {
		for i := 0; i < 50; i++ {
			s := DeriveSeed(42, stream, i)
			if s < 0 {
				t.Fatalf("negative derived seed %d", s)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: (%d,%d) and %s", stream, i, prev)
			}
			seen[s] = fmt.Sprintf("(%d,%d)", stream, i)
			if s != DeriveSeed(42, stream, i) {
				t.Fatal("DeriveSeed not a pure function")
			}
		}
	}
	if DeriveSeed(1, 1, 0) == DeriveSeed(2, 1, 0) {
		t.Fatal("campaign seed ignored")
	}
}

func TestPlanTasksAndDigest(t *testing.T) {
	p := Plan{Seed: 9, RandomStarts: 2, ParsimonyStarts: 1, Replicates: 3}
	tasks := p.Tasks()
	if len(tasks) != 6 {
		t.Fatalf("%d tasks, want 6", len(tasks))
	}
	if tasks[0].ID() != "s0" || tasks[2].ID() != "s2" || tasks[3].ID() != "r0" {
		t.Fatalf("unexpected task IDs: %v %v %v", tasks[0].ID(), tasks[2].ID(), tasks[3].ID())
	}
	if tasks[1].Parsimony || !tasks[2].Parsimony {
		t.Fatal("parsimony flag misassigned")
	}
	if tasks[3].ResampleSeed == 0 || tasks[3].ResampleSeed == tasks[4].ResampleSeed {
		t.Fatal("replicate resample seeds not distinct")
	}
	if p.Digest() != (&Plan{Seed: 9, RandomStarts: 2, ParsimonyStarts: 1, Replicates: 3}).Digest() {
		t.Fatal("equal plans digest differently")
	}
	q := p
	q.Seed = 10
	if p.Digest() == q.Digest() {
		t.Fatal("different plans share a digest")
	}
	// StartSeeds override pins a start's search seed.
	o := Plan{Seed: 9, RandomStarts: 1, StartSeeds: []int64{1234}}
	if got := o.Tasks()[0].Seed; got != 1234 {
		t.Fatalf("start seed override ignored: %d", got)
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{},
		{Seed: 1, Replicates: 5},    // replicates without a reference start
		{Seed: 1, RandomStarts: -1}, //
		{Seed: 1, RandomStarts: 1, StartSeeds: []int64{1, 2}}, // more overrides than starts
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d accepted: %+v", i, p)
		}
	}
	ok := Plan{Seed: 1, RandomStarts: 2, Replicates: 4, Bootstop: &BootstopConfig{CheckEvery: 2}}
	if err := ok.Validate(); err != nil {
		t.Error(err)
	}
}

// campaignFingerprint flattens the determinism-relevant Result surface.
func campaignFingerprint(r *Result) string {
	return fmt.Sprintf("%s|%s|%d|%v|%s|%v|%s|%v|%d",
		r.BestTree, r.BestLnLBits, r.BestStart, r.Supports, r.AnnotatedTree,
		r.ReplicateTrees, r.ConsensusTree, r.ConsensusSupports, r.ConvergedAt)
}

func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	plan := Plan{Seed: 77, RandomStarts: 3, ParsimonyStarts: 1, Replicates: 12}
	var prints []string
	for _, workers := range []int{1, 3, 16} {
		res, err := Run(context.Background(), Config{
			Plan:    plan,
			Runner:  &fakeRunner{},
			Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Starts) != 4 || len(res.ReplicateTrees) != 12 {
			t.Fatalf("workers=%d: wrong shape: %d starts, %d replicates", workers, len(res.Starts), len(res.ReplicateTrees))
		}
		prints = append(prints, campaignFingerprint(res))
	}
	if prints[0] != prints[1] || prints[1] != prints[2] {
		t.Fatalf("campaign results vary with worker count:\n%s\n%s\n%s", prints[0], prints[1], prints[2])
	}
}

func TestCampaignBestSelection(t *testing.T) {
	// The fake's LnL is a pure function of the search seed; recompute the
	// argmax independently and check the tie-break (strictly-greater
	// keeps the lowest index).
	plan := Plan{Seed: 5, RandomStarts: 5}
	res, err := Run(context.Background(), Config{Plan: plan, Runner: &fakeRunner{}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	best, bestLnL := -1, 0.0
	for i, task := range plan.Tasks() {
		lnl := -1000 - float64(uint64(task.Seed)%997)/10
		if best < 0 || lnl > bestLnL {
			best, bestLnL = i, lnl
		}
	}
	if res.BestStart != best || res.BestLogLikelihood != bestLnL {
		t.Fatalf("best = start %d (%g), want start %d (%g)", res.BestStart, res.BestLogLikelihood, best, bestLnL)
	}
}

func TestCampaignManifestResume(t *testing.T) {
	plan := Plan{Seed: 31, RandomStarts: 2, Replicates: 6}
	dir := t.TempDir()

	// Uninterrupted reference run (no manifest).
	want, err := Run(context.Background(), Config{Plan: plan, Runner: &fakeRunner{}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after 3 completed tasks.
	manifest := filepath.Join(dir, "campaign.json")
	ctx, cancel := context.WithCancel(context.Background())
	killed := &fakeRunner{}
	n := 0
	_, err = Run(ctx, Config{
		Plan: plan, Runner: killed, Workers: 1, ManifestPath: manifest,
		OnTaskDone: func(Task, *TaskRecord) {
			if n++; n == 3 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("interrupted campaign reported success")
	}
	cancel()

	m, err := LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || len(m.doneTasks()) != 3 {
		t.Fatalf("manifest holds %v, want 3 done tasks", m.doneTasks())
	}

	// Resume: only the missing tasks run; the result matches the
	// uninterrupted reference exactly.
	resumed := &fakeRunner{}
	got, err := Run(context.Background(), Config{
		Plan: plan, Runner: resumed, Workers: 4, ManifestPath: manifest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if campaignFingerprint(got) != campaignFingerprint(want) {
		t.Fatalf("resumed campaign differs from uninterrupted:\n%s\n%s",
			campaignFingerprint(got), campaignFingerprint(want))
	}
	done := map[string]bool{}
	for _, id := range killed.ran() {
		done[id] = true
	}
	for _, id := range resumed.ran() {
		if done[id] && m.Tasks[id] != nil && m.Tasks[id].State == "done" {
			// A task can legitimately appear in both logs if the kill
			// caught it mid-flight (failed record) — but never if its
			// record was already durable.
			t.Fatalf("resume re-ran durable task %s", id)
		}
	}
	if total := len(resumed.ran()); total != plan.Starts()+plan.Replicates-3 {
		t.Fatalf("resume executed %d tasks, want %d", total, plan.Starts()+plan.Replicates-3)
	}
}

func TestCampaignManifestRejectsMismatch(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "c.json")
	plan := Plan{Seed: 1, RandomStarts: 1}
	if _, err := Run(context.Background(), Config{Plan: plan, Runner: &fakeRunner{}, ManifestPath: manifest}); err != nil {
		t.Fatal(err)
	}
	other := Plan{Seed: 2, RandomStarts: 1}
	if _, err := Run(context.Background(), Config{Plan: other, Runner: &fakeRunner{}, ManifestPath: manifest}); err == nil {
		t.Fatal("manifest from a different plan accepted")
	}
	// Inputs digests compare strictly: a manifest written without one
	// refuses a resume that pins one, and the other way round.
	before, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), Config{Plan: plan, Runner: &fakeRunner{}, ManifestPath: manifest, InputsDigest: "deadbeef"}); err == nil || !strings.Contains(err.Error(), "inputs digest") {
		t.Fatalf("one-sided inputs digest: got %v, want a refusal naming the inputs digest", err)
	}
	if after, err := os.ReadFile(manifest); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("a refused resume rewrote the manifest (%v)", err)
	}
	pinned := filepath.Join(dir, "pinned.json")
	if _, err := Run(context.Background(), Config{Plan: plan, Runner: &fakeRunner{}, ManifestPath: pinned, InputsDigest: "deadbeef"}); err != nil {
		t.Fatal(err)
	}
	for _, digest := range []string{"", "feedface"} {
		if _, err := Run(context.Background(), Config{Plan: plan, Runner: &fakeRunner{}, ManifestPath: pinned, InputsDigest: digest}); err == nil {
			t.Fatalf("manifest pinning deadbeef accepted inputs digest %q", digest)
		}
	}
	if _, err := Run(context.Background(), Config{Plan: plan, Runner: &fakeRunner{}, ManifestPath: pinned, InputsDigest: "deadbeef"}); err != nil {
		t.Fatalf("resume with the pinned inputs digest refused: %v", err)
	}
}

func TestCampaignTaskFailureAborts(t *testing.T) {
	plan := Plan{Seed: 3, RandomStarts: 2, Replicates: 2}
	r := &failOnce{fail: "r1"}
	_, err := Run(context.Background(), Config{Plan: plan, Runner: r, Workers: 2})
	if err == nil {
		t.Fatal("campaign with a failed task reported success")
	}
}

type failOnce struct {
	fakeRunner
	fail string
}

func (f *failOnce) Run(ctx context.Context, t Task) (*TaskResult, error) {
	if t.ID() == f.fail {
		return nil, fmt.Errorf("injected failure")
	}
	return f.fakeRunner.Run(ctx, t)
}

func TestBootstopConvergesOnDuplicateHeavyCampaign(t *testing.T) {
	// Every replicate returns the same topology: pseudo-halves agree
	// perfectly, so the first checkpoint must stop the campaign.
	base := Plan{Seed: 19, RandomStarts: 1, Replicates: 40}
	withStop := base
	withStop.Bootstop = &BootstopConfig{CheckEvery: 4, Permutations: 16}

	fixed, err := Run(context.Background(), Config{Plan: base, Runner: &fakeRunner{dup: true}, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	var stops []int
	for _, workers := range []int{1, 8} {
		adaptive, err := Run(context.Background(), Config{Plan: withStop, Runner: &fakeRunner{dup: true}, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !adaptive.Converged {
			t.Fatal("duplicate-heavy campaign did not converge")
		}
		if adaptive.ConvergedAt >= base.Replicates {
			t.Fatalf("converged at %d, no earlier than fixed-B %d", adaptive.ConvergedAt, base.Replicates)
		}
		// The dispatch window bounds speculation to one batch beyond the
		// pending checkpoint.
		if adaptive.ReplicatesRun > adaptive.ConvergedAt+2*4 {
			t.Fatalf("ran %d replicates for a campaign converged at %d", adaptive.ReplicatesRun, adaptive.ConvergedAt)
		}
		// Supports on the converged prefix must equal the fixed-B run's
		// supports over that same prefix. With identical replicates both
		// are all-1 vectors; compare exactly.
		if !reflect.DeepEqual(adaptive.Supports, fixed.Supports) {
			t.Fatalf("adaptive supports %v != fixed %v", adaptive.Supports, fixed.Supports)
		}
		if !reflect.DeepEqual(adaptive.ReplicateTrees, fixed.ReplicateTrees[:adaptive.ConvergedAt]) {
			t.Fatal("converged prefix differs from the fixed-B prefix")
		}
		stops = append(stops, adaptive.ConvergedAt)
	}
	if stops[0] != stops[1] {
		t.Fatalf("stop point depends on concurrency: %v", stops)
	}
}

func TestBootstopDivergentCampaignRunsFullBudget(t *testing.T) {
	// Replicates spread over four incompatible topologies: the halves
	// keep disagreeing and the campaign must exhaust its budget.
	plan := Plan{Seed: 23, RandomStarts: 1, Replicates: 12,
		Bootstop: &BootstopConfig{CheckEvery: 4, Cutoff: 0.01, Permutations: 16}}
	res, err := Run(context.Background(), Config{Plan: plan, Runner: &fakeRunner{}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatalf("divergent campaign converged at %d", res.ConvergedAt)
	}
	if len(res.ReplicateTrees) != 12 || res.ReplicatesRun != 12 {
		t.Fatalf("budget not exhausted: %d used, %d run", len(res.ReplicateTrees), res.ReplicatesRun)
	}
}

func TestCampaignMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewMetrics(reg)
	plan := Plan{Seed: 11, RandomStarts: 2, Replicates: 8,
		Bootstop: &BootstopConfig{CheckEvery: 4, Permutations: 8}}
	res, err := Run(context.Background(), Config{Plan: plan, Runner: &fakeRunner{dup: true}, Workers: 2, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.done.With("start").Value(); got != 2 {
		t.Fatalf("start counter = %g, want 2", got)
	}
	if got := m.done.With("replicate").Value(); int(got) != res.ReplicatesRun {
		t.Fatalf("replicate counter = %g, want %d", got, res.ReplicatesRun)
	}
	if res.Converged {
		if m.converged.Value() != 1 || m.replicatesToConverge.Count() != 1 {
			t.Fatal("bootstop metrics not recorded")
		}
	}
	if m.running.Value() != 0 {
		t.Fatalf("running gauge = %g after campaign end", m.running.Value())
	}
}
