package service

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	examl "repro"
	"repro/internal/service/client"
)

// newPoolTest starts a server whose workers are re-execed copies of
// this test binary (see TestMain) and an HTTP front end.
func newPoolTest(t *testing.T, workers int) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Options{
		Workers:           workers,
		WorkerArgv:        []string{os.Args[0]},
		WorkerEnv:         []string{"SERVICE_TEST_ROLE=worker"},
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  time.Second,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := srv.WaitWorkers(workers, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

// The integration recipe matches the root package's network tests.
const (
	itTaxa     = 10
	itParts    = 2
	itGeneLen  = 60
	itDataSeed = 33
	itSeed     = 7
	itIters    = 3
)

func itSpec(inject bool) client.JobSpec {
	spec := client.JobSpec{
		Simulate: &client.SimulateSpec{
			Taxa: itTaxa, Partitions: itParts, GeneLength: itGeneLen, Seed: itDataSeed,
		},
		Ranks:         2,
		Seed:          itSeed,
		MaxIterations: itIters,
	}
	if inject {
		spec.InjectFailure = &client.InjectSpec{Rank: 1, AfterIteration: 1}
	}
	return spec
}

// itReference computes the bit-exact expectation through the public
// in-process engine — the identical code path a direct 2-rank
// examl.InferNet run (and the CLI) produces.
func itReference(t *testing.T) (string, string) {
	t.Helper()
	d, err := examl.Simulate(itTaxa, itParts, itGeneLen, itDataSeed)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := examl.Infer(d, examl.Config{Ranks: 2, Seed: itSeed, MaxIterations: itIters})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%016x", math.Float64bits(ref.LogLikelihood)), ref.Tree
}

// itRunJob submits spec and follows the job to its result through
// client.Client, the API client phyrun's service backend uses.
func itRunJob(t *testing.T, hs *httptest.Server, spec client.JobSpec, timeout time.Duration) *JobResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cl := client.New(hs.URL)
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	res, err := cl.Wait(ctx, st.ID, nil)
	if err != nil {
		t.Fatalf("job %s: %v", st.ID, err)
	}
	return res
}

// TestServiceJobMatchesDirectRun runs a real 2-rank job on a warm
// loopback pool and asserts the result is bit-identical to a direct
// in-process run of the same search.
func TestServiceJobMatchesDirectRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process service test")
	}
	refBits, refTree := itReference(t)
	_, hs := newPoolTest(t, 2)
	res := itRunJob(t, hs, itSpec(false), 90*time.Second)
	if res.LnLBits != refBits {
		t.Errorf("lnl bits %s, want %s", res.LnLBits, refBits)
	}
	if res.Tree != refTree {
		t.Errorf("tree differs from the direct run")
	}
	if res.Recovered || res.Ranks != 2 || res.Iterations != itIters {
		t.Errorf("result shape: %+v", res)
	}
}

// TestServiceMigratesInjectedDeath kills rank 1 after its first
// iteration and asserts the scheduler migrates the rank onto the spare
// worker, the world recovers at full size, and the final result is
// STILL bit-identical to an undisturbed run — the property that makes
// same-size migration worth the spare.
func TestServiceMigratesInjectedDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process service test")
	}
	refBits, refTree := itReference(t)
	srv, hs := newPoolTest(t, 3)
	res := itRunJob(t, hs, itSpec(true), 120*time.Second)
	if !res.Recovered {
		t.Fatalf("job did not recover: %+v", res)
	}
	if res.Ranks != 2 {
		t.Errorf("finished on %d ranks, want the restored world of 2", res.Ranks)
	}
	if res.LnLBits != refBits {
		t.Errorf("lnl bits %s, want %s (migration must not change the result)", res.LnLBits, refBits)
	}
	if res.Tree != refTree {
		t.Errorf("tree differs from the undisturbed run")
	}

	srv.mu.Lock()
	j := srv.jobs["job-0"]
	migrations := j.migrations
	var migrated bool
	for _, ev := range j.eventsSince(0) {
		if ev.Type == "migrated" {
			migrated = true
		}
	}
	srv.mu.Unlock()
	if migrations != 1 || !migrated {
		t.Errorf("migrations=%d migrated-event=%v, want exactly one migration", migrations, migrated)
	}

	// The healed pool serves the next job as new: the same spec without
	// the failure drill gives the same bits, with nothing recovered.
	res = itRunJob(t, hs, itSpec(false), 120*time.Second)
	if res.Recovered || res.Ranks != 2 {
		t.Errorf("post-migration job: %+v, want 2 ranks and no recovery", res)
	}
	if res.LnLBits != refBits {
		t.Errorf("post-migration lnl bits %s, want %s", res.LnLBits, refBits)
	}
	if res.Tree != refTree {
		t.Errorf("post-migration tree differs from the undisturbed run")
	}
}

// TestServiceQueueBackfill saturates a 2-worker pool with a 2-rank job
// and a queued 1-rank job, asserting both finish and the queue drains
// in order.
func TestServiceQueueBackfill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process service test")
	}
	_, hs := newPoolTest(t, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cl := client.New(hs.URL)
	first, err := cl.Submit(ctx, itSpec(false))
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	small := client.JobSpec{
		Simulate: &client.SimulateSpec{Taxa: 6, Partitions: 1, GeneLength: 20, Seed: 5},
		Ranks:    1, MaxIterations: 1,
	}
	res := itRunJob(t, hs, small, 120*time.Second)
	if res.Ranks != 1 {
		t.Errorf("small job ran on %d ranks", res.Ranks)
	}
	// The 2-rank job submitted first must finish too.
	if _, err := cl.Wait(ctx, first.ID, nil); err != nil {
		t.Fatalf("first job: %v", err)
	}
}
