package examl

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/decentral"
	"repro/internal/enginecore"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/mpinet"
	"repro/internal/search"
)

// The network integration tests re-exec this test binary as real OS
// processes, one per rank, connected over loopback TCP. TestMain
// dispatches: when EXAML_NET_TEST_ROLE is set the process is a worker
// rank and runs netTestWorker instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("EXAML_NET_TEST_ROLE") != "" {
		netTestWorker()
		return
	}
	os.Exit(m.Run())
}

// Shared recipe: every process — parent and workers — must build the
// identical dataset and search configuration for bit-identity to hold.
const (
	netTestTaxa     = 10
	netTestParts    = 2
	netTestGeneLen  = 60
	netTestDataSeed = 33
	netTestSeed     = 7
)

func netTestDataset() (*Dataset, error) {
	return Simulate(netTestTaxa, netTestParts, netTestGeneLen, netTestDataSeed)
}

func netTestInferConfig() Config {
	return Config{Seed: netTestSeed, MaxIterations: 3}
}

// netTestSearchConfig mirrors netTestInferConfig at the internal layer,
// for the fault-injection roles that drive decentral/fault directly.
func netTestSearchConfig() search.Config {
	return search.Config{Het: model.Gamma, Seed: netTestSeed, MaxIterations: 3}
}

// workerOut is what each worker process reports on stdout as JSON.
type workerOut struct {
	Rank             int
	Size             int
	Epochs           int
	Recovered        bool
	ResumedIteration int
	LnLBits          uint64
	Tree             string
	Comm             json.RawMessage
}

func netTestWorker() {
	role := os.Getenv("EXAML_NET_TEST_ROLE")
	rank := netTestEnvInt("EXAML_NET_TEST_RANK")
	size := netTestEnvInt("EXAML_NET_TEST_SIZE")
	addr := os.Getenv("EXAML_NET_TEST_ADDR")
	nonce, err := strconv.ParseUint(os.Getenv("EXAML_NET_TEST_NONCE"), 10, 64)
	if err != nil {
		netTestDie("bad nonce: %v", err)
	}
	d, err := netTestDataset()
	if err != nil {
		netTestDie("simulate: %v", err)
	}

	netCfg := mpinet.Config{
		Rank:              rank,
		Size:              size,
		Addr:              addr,
		Nonce:             nonce,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second,
		RecoveryWindow:    800 * time.Millisecond,
	}

	switch role {
	case "plain":
		// Full public-API path, identical to what cmd/examl -net-rank runs.
		nr, err := InferNet(d, netTestInferConfig(), NetConfig{
			Rank: rank, Size: size, Addr: addr, Nonce: nonce,
		})
		if err != nil {
			netTestDie("InferNet: %v", err)
		}
		commJSON, err := json.Marshal(nr.Result.Comm)
		if err != nil {
			netTestDie("marshal comm: %v", err)
		}
		netTestEmit(workerOut{
			Rank:    nr.Rank,
			Size:    nr.Size,
			Epochs:  nr.Epochs,
			LnLBits: math.Float64bits(nr.Result.LogLikelihood),
			Tree:    nr.Result.Tree,
			Comm:    commJSON,
		})

	case "victim":
		// Joins the world, completes iteration 1, then dies abruptly —
		// no bye frame, no connection teardown courtesy: os.Exit.
		tr, err := mpinet.Connect(netCfg)
		if err != nil {
			netTestDie("connect: %v", err)
		}
		c := mpi.NewComm(tr, rank, size, mpi.NewMeter())
		scfg := netTestSearchConfig()
		scfg.OnIteration = func(_ *search.Searcher, iter int, _ float64) {
			if iter == 1 {
				os.Exit(3)
			}
		}
		decentral.RunOnComm(c, d.d, enginecore.RunConfig{Search: scfg})
		netTestDie("victim survived its own death")

	case "survivor":
		res, _, report, err := fault.RunNet(d.d, fault.NetPlan{
			Net:           netCfg,
			Run:           enginecore.RunConfig{Search: netTestSearchConfig()},
			MaxRecoveries: 1,
		})
		if err != nil {
			netTestDie("RunNet: %v", err)
		}
		netTestEmit(workerOut{
			Rank:             report.FinalRank,
			Size:             report.FinalSize,
			Epochs:           report.Epochs,
			Recovered:        report.Recovered,
			ResumedIteration: report.ResumedIteration,
			LnLBits:          math.Float64bits(res.LnL),
			Tree:             res.Tree.Newick(),
		})

	default:
		netTestDie("unknown role %q", role)
	}
}

func netTestEnvInt(key string) int {
	n, err := strconv.Atoi(os.Getenv(key))
	if err != nil {
		netTestDie("bad %s: %v", key, err)
	}
	return n
}

func netTestDie(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "net worker: "+format+"\n", args...)
	os.Exit(1)
}

func netTestEmit(o workerOut) {
	if err := json.NewEncoder(os.Stdout).Encode(o); err != nil {
		netTestDie("emit: %v", err)
	}
	os.Exit(0)
}

// netTestSpawn re-execs this test binary as one worker rank.
func netTestSpawn(role string, rank, size int, addr string, nonce uint64) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"EXAML_NET_TEST_ROLE="+role,
		"EXAML_NET_TEST_RANK="+strconv.Itoa(rank),
		"EXAML_NET_TEST_SIZE="+strconv.Itoa(size),
		"EXAML_NET_TEST_ADDR="+addr,
		"EXAML_NET_TEST_NONCE="+strconv.FormatUint(nonce, 10),
	)
	cmd.Stderr = os.Stderr
	return cmd
}

func reserveLoopbackAddr(t *testing.T) string {
	t.Helper()
	addr, err := mpinet.ReserveLoopbackAddr()
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestNetProcessesMatchInProcess launches 4 real OS processes over
// loopback TCP and asserts the run is bit-identical to the in-process
// 4-rank run: the tree string, the Float64bits of the log likelihood,
// and the per-CommClass metered byte counts (Table I) on every rank.
func TestNetProcessesMatchInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process network test")
	}
	const size = 4
	d, err := netTestDataset()
	if err != nil {
		t.Fatal(err)
	}
	cfg := netTestInferConfig()
	cfg.Ranks = size
	ref, err := Infer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refComm, err := json.Marshal(ref.Comm)
	if err != nil {
		t.Fatal(err)
	}

	addr := reserveLoopbackAddr(t)
	outs := make([][]byte, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			outs[r], errs[r] = netTestSpawn("plain", r, size, addr, 4242).Output()
		}(r)
	}
	wg.Wait()

	for r := 0; r < size; r++ {
		if errs[r] != nil {
			t.Fatalf("worker rank %d: %v", r, errs[r])
		}
		var o workerOut
		if err := json.Unmarshal(outs[r], &o); err != nil {
			t.Fatalf("worker rank %d output %q: %v", r, outs[r], err)
		}
		if o.Rank != r || o.Size != size || o.Epochs != 1 {
			t.Errorf("worker rank %d reported rank=%d size=%d epochs=%d", r, o.Rank, o.Size, o.Epochs)
		}
		if o.LnLBits != math.Float64bits(ref.LogLikelihood) {
			t.Errorf("rank %d lnL %v not bit-identical to in-process %v",
				r, math.Float64frombits(o.LnLBits), ref.LogLikelihood)
		}
		if o.Tree != ref.Tree {
			t.Errorf("rank %d tree differs from in-process run", r)
		}
		if string(o.Comm) != string(refComm) {
			t.Errorf("rank %d comm accounting differs:\n tcp: %s\n ref: %s", r, o.Comm, refComm)
		}
	}
}

// TestNetProcessDeathRecovers kills one of four worker processes after
// its first iteration (abrupt os.Exit — no goodbye) and asserts the
// three survivors detect the loss, re-form the world, resume from the
// replica checkpoint, and finish with the bit-identical result the
// in-process failure-injection harness produces for the same scenario.
func TestNetProcessDeathRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process network test")
	}
	const (
		size   = 4
		victim = 1
	)
	d, err := netTestDataset()
	if err != nil {
		t.Fatal(err)
	}
	ref, _, refReport, err := fault.Run(d.d, fault.Plan{
		Run:                enginecore.RunConfig{Ranks: size, Search: netTestSearchConfig()},
		FailRanks:          1,
		FailAfterIteration: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	addr := reserveLoopbackAddr(t)
	outs := make([][]byte, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		role := "survivor"
		if r == victim {
			role = "victim"
		}
		wg.Add(1)
		go func(r int, role string) {
			defer wg.Done()
			outs[r], errs[r] = netTestSpawn(role, r, size, addr, 4343).Output()
		}(r, role)
	}
	wg.Wait()

	var exitErr *exec.ExitError
	if errs[victim] == nil {
		t.Fatalf("victim exited cleanly; want exit code 3")
	} else if !errors.As(errs[victim], &exitErr) || exitErr.ExitCode() != 3 {
		t.Fatalf("victim: %v, want exit code 3", errs[victim])
	}

	finalRanks := map[int]bool{}
	for r := 0; r < size; r++ {
		if r == victim {
			continue
		}
		if errs[r] != nil {
			t.Fatalf("survivor rank %d: %v", r, errs[r])
		}
		var o workerOut
		if err := json.Unmarshal(outs[r], &o); err != nil {
			t.Fatalf("survivor rank %d output %q: %v", r, outs[r], err)
		}
		if !o.Recovered || o.Epochs != 2 {
			t.Errorf("survivor %d: recovered=%v epochs=%d, want recovery in epoch 2", r, o.Recovered, o.Epochs)
		}
		if o.Size != size-1 {
			t.Errorf("survivor %d finished in world of %d, want %d", r, o.Size, size-1)
		}
		if o.ResumedIteration != refReport.CheckpointIteration {
			t.Errorf("survivor %d resumed from iteration %d, want %d", r, o.ResumedIteration, refReport.CheckpointIteration)
		}
		if o.LnLBits != math.Float64bits(ref.LnL) {
			t.Errorf("survivor %d lnL %v not bit-identical to in-process recovery %v",
				r, math.Float64frombits(o.LnLBits), ref.LnL)
		}
		if want := ref.Tree.Newick(); o.Tree != want {
			t.Errorf("survivor %d tree differs from in-process recovery", r)
		}
		if finalRanks[o.Rank] {
			t.Errorf("final rank %d claimed twice", o.Rank)
		}
		finalRanks[o.Rank] = true
	}
}

// TestInferNetRefusesRanksWithDifferentInputs starts a 2-rank world
// whose rank 1 asks for PSR where rank 0 asks for Γ. Both ranks must
// fail inside the rendezvous, with no result and no recovery, rank 0
// naming rank 1.
func TestInferNetRefusesRanksWithDifferentInputs(t *testing.T) {
	d, err := netTestDataset()
	if err != nil {
		t.Fatal(err)
	}
	addr := reserveLoopbackAddr(t)
	results := make([]*NetResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	start := time.Now()
	for rank := 0; rank < 2; rank++ {
		cfg := netTestInferConfig()
		if rank == 1 {
			cfg.RateModel = PSR
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[rank], errs[rank] = InferNet(d, cfg, NetConfig{
				Rank: rank, Size: 2, Addr: addr, Nonce: 9, MaxRecoveries: 1,
			})
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("the ranks took %v to fail, want a refusal inside the rendezvous", elapsed)
	}
	for rank := range errs {
		if results[rank] != nil {
			t.Errorf("rank %d returned a result", rank)
		}
		if errs[rank] == nil || !strings.Contains(errs[rank].Error(), "rank 1's inputs differ from rank 0's") {
			t.Errorf("rank %d: got %v, want an error saying rank 1's inputs differ", rank, errs[rank])
		}
	}
}
