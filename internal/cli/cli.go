// Package cli is the examl and raxml-light command-line tools: flag
// wiring, dataset loading, the run itself and the result report. The two
// binaries are one Main that differs only in the parallelization scheme
// it selects — mirroring how the paper's two codes relate.
package cli

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/metrics"
	"repro/internal/model"
)

// Main is the whole of the examl and raxml-light commands: parse the
// flags, then launch a local network world, run one rank of one, or run
// in process, and report. name prefixes the log lines.
func Main(name string, scheme examl.Scheme) {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	var args Args
	Register(&args)
	flag.Parse()
	args.Scheme = scheme
	switch {
	case args.NetLaunch:
		if err := Launch(args); err != nil {
			log.Fatal(err)
		}
	case args.NetRank >= 0:
		nr, err := RunNet(args)
		if err != nil {
			log.Fatal(err)
		}
		ReportNet(args, nr)
	default:
		res, err := Run(args)
		if err != nil {
			log.Fatal(err)
		}
		Report(args, res)
	}
}

// Args carries every inference flag.
type Args struct {
	AlignPath, PartPath, ModelName, SubstName, TreePath, Ckpt, Restore, Name string
	Binary, PerPart, Parsimony                                               bool
	Ranks, Threads, MaxIter                                                  int
	Seed                                                                     int64
	Scheme                                                                   examl.Scheme

	// Stats prints the end-of-run telemetry report (kernel spans,
	// collective timing, load imbalance; docs/OBSERVABILITY.md).
	Stats bool
	// StatsJSON, when non-empty, writes the telemetry report as JSON to
	// the given file (implies telemetry collection).
	StatsJSON string
	// TracePath, when non-empty, streams a JSONL span-event trace to the
	// given file (implies telemetry collection).
	TracePath string
	// MetricsAddr, when non-empty, serves Prometheus text metrics at
	// GET /metrics on this address for the duration of the run (implies
	// telemetry collection). In network mode only rank 0 binds it, so a
	// locally launched world does not collide on the port.
	MetricsAddr string
	// Pprof additionally mounts net/http/pprof under /debug/pprof/ on
	// the metrics listener (requires MetricsAddr).
	Pprof bool

	// Network mode (docs/NETWORKING.md): ranks as separate OS processes
	// over TCP instead of goroutines. NetRank ≥ 0 makes this process one
	// rank of a NetSize-process world rendezvousing at NetAddr; NetLaunch
	// instead forks the whole world locally and waits.
	NetRank       int
	NetSize       int
	NetAddr       string
	NetNonce      uint64
	NetLaunch     bool
	NetRecoveries int
}

// Register installs the shared flags on the default FlagSet.
func Register(a *Args) {
	flag.StringVar(&a.AlignPath, "s", "", "alignment file (relaxed PHYLIP; binary if -b)")
	flag.BoolVar(&a.Binary, "b", false, "alignment file is in the binary format")
	flag.StringVar(&a.PartPath, "q", "", "partition scheme file (RAxML format)")
	flag.StringVar(&a.ModelName, "m", "GAMMA", "rate heterogeneity: GAMMA or PSR")
	flag.StringVar(&a.SubstName, "subst", "GTR", "substitution model: GTR, JC, K80, or HKY")
	flag.BoolVar(&a.PerPart, "M", false, "individual per-partition branch lengths")
	flag.IntVar(&a.Ranks, "np", 1, "number of simulated MPI ranks")
	flag.IntVar(&a.Threads, "T", 1, "worker threads per rank (hybrid scheme; results are bit-identical at any value)")
	flag.StringVar(&a.TreePath, "t", "", "starting tree file (Newick)")
	flag.BoolVar(&a.Parsimony, "y", false, "build the starting tree by stepwise-addition parsimony")
	flag.Int64Var(&a.Seed, "p", 12345, "random seed for the starting tree")
	flag.StringVar(&a.Name, "n", "run", "run name (output prefix)")
	flag.IntVar(&a.MaxIter, "iter", 0, "maximum search iterations (0 = default)")
	flag.StringVar(&a.Ckpt, "c", "", "checkpoint file path")
	flag.StringVar(&a.Restore, "r", "", "restore from checkpoint file")
	flag.IntVar(&a.NetRank, "net-rank", -1, "network mode: this process's rank (0..net-size-1; rank 0 listens on -net-addr)")
	flag.IntVar(&a.NetSize, "net-size", 0, "network mode: world size in processes (with -net-launch, 0 means -np)")
	flag.StringVar(&a.NetAddr, "net-addr", "", "network mode: rendezvous address host:port of rank 0 (-net-launch picks a free loopback port when empty)")
	flag.Uint64Var(&a.NetNonce, "net-nonce", 0, "network mode: run nonce shared by all ranks (rejects stale workers; -net-launch generates one when 0)")
	flag.BoolVar(&a.NetLaunch, "net-launch", false, "fork the whole world as local worker processes over loopback TCP and wait")
	flag.IntVar(&a.NetRecoveries, "net-recoveries", 1, "network mode: survivor-recovery budget after peer failures (decentralized scheme; 0 = a lost peer fails the run)")
	flag.BoolVar(&a.Stats, "stats", false, "print the end-of-run telemetry report (kernel spans, collective timing, load imbalance)")
	flag.StringVar(&a.StatsJSON, "stats-json", "", "write the telemetry report as JSON to this file")
	flag.StringVar(&a.TracePath, "trace", "", "stream a JSONL telemetry event trace to this file")
	flag.StringVar(&a.MetricsAddr, "metrics-addr", "", "serve Prometheus metrics at GET /metrics on this address during the run (network mode: rank 0 only)")
	flag.BoolVar(&a.Pprof, "pprof", false, "also serve net/http/pprof at /debug/pprof/ on the metrics listener (requires -metrics-addr)")
}

// Validate rejects impossible or inconsistent flag combinations before
// any work starts, so misconfigurations fail with a clear message
// instead of a panic or a silently serial run.
func Validate(a Args) error {
	if a.Ranks < 1 {
		return fmt.Errorf("-np must be >= 1 (got %d)", a.Ranks)
	}
	if a.Threads < 1 {
		return fmt.Errorf("-T must be >= 1 (got %d)", a.Threads)
	}
	if a.MaxIter < 0 {
		return fmt.Errorf("-iter must be >= 0 (got %d)", a.MaxIter)
	}
	if a.NetLaunch && a.NetRank >= 0 {
		return fmt.Errorf("-net-launch forks its own workers; it cannot be combined with -net-rank")
	}
	if a.NetRank >= 0 {
		if a.NetSize < 1 {
			return fmt.Errorf("-net-rank requires -net-size >= 1 (got %d)", a.NetSize)
		}
		if a.NetRank >= a.NetSize {
			return fmt.Errorf("-net-rank %d outside the world of -net-size %d", a.NetRank, a.NetSize)
		}
		if a.NetAddr == "" {
			return fmt.Errorf("-net-rank requires the rendezvous address (-net-addr host:port)")
		}
	}
	if a.NetSize < 0 {
		return fmt.Errorf("-net-size must be >= 0 (got %d)", a.NetSize)
	}
	if a.NetRecoveries < 0 {
		return fmt.Errorf("-net-recoveries must be >= 0 (got %d)", a.NetRecoveries)
	}
	if a.Pprof && a.MetricsAddr == "" {
		return fmt.Errorf("-pprof serves on the metrics listener; it requires -metrics-addr")
	}
	return nil
}

// telemetryRequested reports whether any telemetry sink is enabled.
// A live /metrics endpoint counts: the kernel and collective gauges it
// exposes are fed by the telemetry spans.
func (a Args) telemetryRequested() bool {
	return a.Stats || a.StatsJSON != "" || a.TracePath != "" || a.MetricsAddr != ""
}

// startObservability binds the -metrics-addr listener and serves the
// process-wide metrics registry (and, with -pprof, the standard Go
// profiles) for the duration of the run. The returned shutdown func is
// safe to call always — it is a no-op when no address was requested.
// Instrumentation is scrape-only and never feeds back into the search,
// so the determinism contract holds (docs/DETERMINISM.md).
func startObservability(a Args) (shutdown func(), err error) {
	if a.MetricsAddr == "" {
		return func() {}, nil
	}
	bound, stop, err := metrics.Serve(a.MetricsAddr, []*metrics.Registry{metrics.Default()}, a.Pprof)
	if err != nil {
		return nil, fmt.Errorf("binding -metrics-addr %s: %w", a.MetricsAddr, err)
	}
	fmt.Printf("observability: /metrics on http://%s\n", bound)
	return stop, nil
}

// loadDataset opens and parses the alignment named by the args.
func loadDataset(a Args) (*examl.Dataset, error) {
	if a.AlignPath == "" {
		return nil, fmt.Errorf("an alignment is required (-s)")
	}
	f, err := os.Open(a.AlignPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if a.Binary {
		return examl.LoadBinary(f)
	}
	scheme := ""
	if a.PartPath != "" {
		raw, rerr := os.ReadFile(a.PartPath)
		if rerr != nil {
			return nil, rerr
		}
		scheme = string(raw)
	}
	return examl.LoadPhylip(f, scheme)
}

// inferConfig translates the args into an inference configuration
// (everything except the trace writer, which owns a file handle).
func inferConfig(a Args) (examl.Config, error) {
	var cfg examl.Config
	var rateModel examl.RateModel
	switch a.ModelName {
	case "GAMMA", "gamma":
		rateModel = examl.GAMMA
	case "PSR", "psr", "CAT", "cat":
		rateModel = examl.PSR
	default:
		return cfg, fmt.Errorf("unknown model %q (want GAMMA or PSR)", a.ModelName)
	}
	startTree := ""
	if a.TreePath != "" {
		raw, err := os.ReadFile(a.TreePath)
		if err != nil {
			return cfg, err
		}
		startTree = string(raw)
	}
	subst, err := model.ParseSubstModel(a.SubstName)
	if err != nil {
		return cfg, err
	}
	return examl.Config{
		Scheme:                    a.Scheme,
		Ranks:                     a.Ranks,
		Threads:                   a.Threads,
		RateModel:                 rateModel,
		Substitution:              subst,
		PerPartitionBranchLengths: a.PerPart,
		Seed:                      a.Seed,
		StartTree:                 startTree,
		ParsimonyStartTree:        a.Parsimony,
		MaxIterations:             a.MaxIter,
		CheckpointPath:            a.Ckpt,
		RestorePath:               a.Restore,
		Telemetry:                 a.telemetryRequested(),
	}, nil
}

// banner describes the run before it starts: the dataset, and the world
// it runs on — -net-size processes in network mode, else -np ranks — with
// what the data distribution does on it.
func banner(a Args, d *examl.Dataset, cfg examl.Config) (string, error) {
	ranks := a.Ranks
	if a.NetRank >= 0 {
		ranks = a.NetSize
	}
	most, split, err := d.Layout(ranks)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("dataset: %d taxa, %d partitions, %d sites (%d patterns)\n"+
		"scheme: %s, %d ranks x %d threads, %s, at most %d partitions per rank, %d split\n",
		d.NTaxa(), d.NPartitions(), d.Sites(), d.Patterns(),
		a.Scheme, ranks, max(a.Threads, 1), cfg.RateModel, most, split), nil
}

// Run loads the dataset per the args and executes the inference.
func Run(a Args) (res *examl.Result, err error) {
	err = prelude(a, func(d *examl.Dataset, cfg examl.Config) (err error) {
		res, err = examl.Infer(d, cfg)
		return err
	})
	return res, err
}

// prelude is what Run and RunNet share around their inference call:
// validate the args, load the dataset and build the config; open the
// trace file (one per rank in network mode, as is the checkpoint) and
// report its flush or close error; on rank 0, or the only process,
// serve -metrics-addr and print the banner. infer runs last, on the
// finished config.
func prelude(a Args, infer func(*examl.Dataset, examl.Config) error) (err error) {
	if err := Validate(a); err != nil {
		return err
	}
	d, err := loadDataset(a)
	if err != nil {
		return err
	}
	cfg, err := inferConfig(a)
	if err != nil {
		return err
	}
	tracePath := a.TracePath
	if a.NetRank >= 0 {
		// Per-process output files must not collide across ranks.
		if tracePath != "" {
			tracePath = rankPath(tracePath, a.NetRank)
		}
		if cfg.CheckpointPath != "" {
			cfg.CheckpointPath = rankPath(cfg.CheckpointPath, a.NetRank)
		}
	}
	if tracePath != "" {
		tf, cerr := os.Create(tracePath)
		if cerr != nil {
			return fmt.Errorf("creating trace file: %w", cerr)
		}
		trace := bufio.NewWriter(tf)
		cfg.TraceWriter = trace
		defer func() {
			werr := trace.Flush()
			if cerr := tf.Close(); werr == nil {
				werr = cerr
			}
			if err == nil && werr != nil {
				err = fmt.Errorf("writing trace file: %w", werr)
			}
			if err == nil {
				fmt.Printf("telemetry trace written to %s\n", tracePath)
			}
		}()
	}
	if a.NetRank <= 0 {
		// Only the initial rank 0 binds -metrics-addr: a locally
		// launched world re-execs this binary with identical flags, and
		// every rank racing for one port would fail all but one of them.
		stopObs, err := startObservability(a)
		if err != nil {
			return err
		}
		defer stopObs()
		b, err := banner(a, d, cfg)
		if err != nil {
			return err
		}
		fmt.Print(b)
		if a.NetRank == 0 {
			fmt.Printf("transport: tcp, world of %d processes at %s\n", a.NetSize, a.NetAddr)
		}
	}
	return infer(d, cfg)
}

// Report prints the result summary and writes the best tree, plus the
// telemetry report when one was collected.
func Report(a Args, res *examl.Result) {
	fmt.Printf("\nfinal log likelihood: %.6f\n", res.LogLikelihood)
	fmt.Printf("search iterations:    %d\n", res.Iterations)
	fmt.Printf("wall time:            %.2fs\n", res.WallSeconds)
	fmt.Printf("\ncommunication profile:\n")
	for _, c := range res.Comm.Classes {
		fmt.Printf("  %-22s ops=%-9d bytes=%-12d share=%5.1f%%\n", c.Name, c.Ops, c.Bytes, 100*c.ByteShare)
	}
	fmt.Printf("  %-22s ops=%-9d bytes=%-12d regions=%d\n", "TOTAL", res.Comm.TotalOps, res.Comm.TotalBytes, res.Comm.TotalRegions)

	if res.Telemetry != nil {
		if a.Stats {
			fmt.Printf("\n%s", res.Telemetry.String())
		}
		if a.StatsJSON != "" {
			if err := writeStatsJSON(a.StatsJSON, res); err != nil {
				log.Fatalf("writing telemetry JSON: %v", err)
			}
			fmt.Printf("\ntelemetry report written to %s\n", a.StatsJSON)
		}
	}

	treeFile := a.Name + ".bestTree.nwk"
	if err := os.WriteFile(treeFile, []byte(res.Tree+"\n"), 0o644); err != nil {
		log.Fatalf("writing tree: %v", err)
	}
	fmt.Printf("\nbest tree written to %s\n", treeFile)
}

// writeStatsJSON writes the telemetry report to path.
func writeStatsJSON(path string, res *examl.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.Telemetry.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
