// Package cli holds the inference plumbing shared by the examl and
// raxml-light command-line tools: flag wiring, dataset loading, and the
// result report. The two binaries differ only in the parallelization
// scheme they select — mirroring how the paper's two codes relate.
package cli

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"

	"repro"
	"repro/internal/metrics"
	"repro/internal/model"
)

// Args carries every inference flag.
type Args struct {
	AlignPath, PartPath, ModelName, SubstName, TreePath, Ckpt, Restore, Name string
	Binary, MPS, PerPart, Parsimony                                          bool
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

// NetMode reports whether the args select the TCP transport (either as
// a single rank or as the local launcher).
func (a Args) NetMode() bool { return a.NetLaunch || a.NetRank >= 0 }

// Register installs the shared flags on the default FlagSet.
func Register(a *Args) {
	flag.StringVar(&a.AlignPath, "s", "", "alignment file (relaxed PHYLIP; binary if -b)")
	flag.BoolVar(&a.Binary, "b", false, "alignment file is in the binary format")
	flag.StringVar(&a.PartPath, "q", "", "partition scheme file (RAxML format)")
	flag.StringVar(&a.ModelName, "m", "GAMMA", "rate heterogeneity: GAMMA or PSR")
	flag.StringVar(&a.SubstName, "subst", "GTR", "substitution model: GTR, JC, K80, or HKY")
	flag.BoolVar(&a.MPS, "Q", false, "monolithic per-partition data distribution (MPS)")
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
	ln, err := net.Listen("tcp", a.MetricsAddr)
	if err != nil {
		return nil, fmt.Errorf("binding -metrics-addr %s: %w", a.MetricsAddr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", metrics.Handler())
	if a.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	hs := &http.Server{Handler: mux}
	go hs.Serve(ln)
	fmt.Printf("observability: /metrics on http://%s\n", ln.Addr())
	return func() { hs.Close() }, nil
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
	dist := examl.Cyclic
	if a.MPS {
		dist = examl.MPS
	}
	return examl.Config{
		Scheme:                    a.Scheme,
		Ranks:                     a.Ranks,
		Threads:                   a.Threads,
		RateModel:                 rateModel,
		Substitution:              subst,
		PerPartitionBranchLengths: a.PerPart,
		Distribution:              dist,
		Seed:                      a.Seed,
		StartTree:                 startTree,
		ParsimonyStartTree:        a.Parsimony,
		MaxIterations:             a.MaxIter,
		CheckpointPath:            a.Ckpt,
		RestorePath:               a.Restore,
		Telemetry:                 a.telemetryRequested(),
	}, nil
}

func printBanner(a Args, d *examl.Dataset, cfg examl.Config) {
	fmt.Printf("dataset: %d taxa, %d partitions, %d sites (%d patterns)\n",
		d.NTaxa(), d.NPartitions(), d.Sites(), d.Patterns())
	fmt.Printf("scheme: %s, %d ranks x %d threads, %s, %s distribution\n",
		a.Scheme, a.Ranks, max(a.Threads, 1), cfg.RateModel, cfg.Distribution)
}

// Run loads the dataset per the args and executes the inference.
func Run(a Args) (*examl.Result, error) {
	if err := Validate(a); err != nil {
		return nil, err
	}
	d, err := loadDataset(a)
	if err != nil {
		return nil, err
	}
	cfg, err := inferConfig(a)
	if err != nil {
		return nil, err
	}
	var traceBuf *bufio.Writer
	if a.TracePath != "" {
		tf, err := os.Create(a.TracePath)
		if err != nil {
			return nil, fmt.Errorf("creating trace file: %w", err)
		}
		defer tf.Close()
		traceBuf = bufio.NewWriter(tf)
		defer traceBuf.Flush()
		cfg.TraceWriter = traceBuf
	}
	stopObs, err := startObservability(a)
	if err != nil {
		return nil, err
	}
	defer stopObs()
	printBanner(a, d, cfg)
	res, err := examl.Infer(d, cfg)
	if err != nil {
		return nil, err
	}
	if traceBuf != nil {
		if err := traceBuf.Flush(); err != nil {
			return nil, fmt.Errorf("writing trace file: %w", err)
		}
		fmt.Printf("telemetry trace written to %s\n", a.TracePath)
	}
	return res, nil
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
