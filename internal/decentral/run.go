package decentral

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/distrib"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// RunConfig bundles everything a de-centralized inference needs.
type RunConfig struct {
	// Search is the tree-search configuration.
	Search search.Config
	// Ranks is the number of MPI ranks (goroutines).
	Ranks int
	// Strategy selects cyclic or MPS data distribution.
	Strategy distrib.Strategy
	// HybridRanksPerNode enables hierarchical Allreduce (see
	// EngineConfig.HybridRanksPerNode).
	HybridRanksPerNode int
	// Threads is the intra-rank worker count per rank (see
	// EngineConfig.Threads); ≤ 1 runs the kernels serially.
	Threads int
	// Telemetry, when non-nil, supplies one recorder per rank for
	// kernel/collective span timing and search-progress counters
	// (docs/OBSERVABILITY.md). The collector must have been built for
	// at least Ranks ranks; nil disables instrumentation entirely.
	Telemetry *telemetry.Collector
}

// RunStats captures the measured execution profile for the cost model and
// the benchmark harness.
type RunStats struct {
	// Comm is the metered collective trace.
	Comm mpi.Snapshot
	// MaxRankColumns and TotalColumns are kernel column-update counts.
	MaxRankColumns, TotalColumns int64
	// CLVBytesTotal is the summed CLV footprint.
	CLVBytesTotal float64
	// Wall is the measured wall-clock time of the run.
	Wall time.Duration
	// Ranks echoes the rank count.
	Ranks int
}

// runRank is the per-rank body shared by Run (one goroutine per rank)
// and RunOnComm (one OS process per rank): build the engine replica,
// run the identical search, report the kernel-side stats.
func runRank(c *mpi.Comm, d *msa.Dataset, assign *distrib.Assignment, cfg RunConfig, rec *telemetry.Recorder) (*search.Result, int64, float64, error) {
	eng, err := NewEngine(c, d, assign, EngineConfig{
		Het:                  cfg.Search.Het,
		Subst:                cfg.Search.Subst,
		PerPartitionBranches: cfg.Search.PerPartitionBranches,
		HybridRanksPerNode:   cfg.HybridRanksPerNode,
		Threads:              cfg.Threads,
		Recorder:             rec,
	})
	if err != nil {
		return nil, 0, 0, err
	}
	defer eng.Close()
	scfg := cfg.Search
	scfg.Telemetry = rec
	s, err := search.NewSearcher(eng, d, scfg)
	if err != nil {
		return nil, 0, 0, err
	}
	res, err := s.Run()
	cols, clv := eng.Stats()
	return res, cols, clv, err
}

// Run executes a full de-centralized inference: every rank materializes
// its share, builds a Searcher replica, and runs the identical algorithm;
// results are cross-checked for the bit-level consistency the scheme
// guarantees and rank 0's result is returned.
func Run(d *msa.Dataset, cfg RunConfig) (*search.Result, *RunStats, error) {
	if cfg.Ranks < 1 {
		return nil, nil, fmt.Errorf("decentral: %d ranks", cfg.Ranks)
	}
	counts := make([]int, d.NPartitions())
	for i, p := range d.Parts {
		counts[i] = p.NPatterns()
	}
	assign, err := distrib.Compute(cfg.Strategy, counts, cfg.Ranks)
	if err != nil {
		return nil, nil, err
	}
	world := mpi.NewWorld(cfg.Ranks)

	results := make([]*search.Result, cfg.Ranks)
	columns := make([]int64, cfg.Ranks)
	clvBytes := make([]float64, cfg.Ranks)
	errs := make([]error, cfg.Ranks)
	var mu sync.Mutex

	start := time.Now()
	world.Run(func(c *mpi.Comm) {
		rec := cfg.Telemetry.Recorder(c.Rank())
		res, cols, clv, err := runRank(c, d, assign, cfg, rec)
		mu.Lock()
		if err != nil {
			errs[c.Rank()] = err
		} else {
			results[c.Rank()] = res
			columns[c.Rank()] = cols
			clvBytes[c.Rank()] = clv
		}
		mu.Unlock()
	})
	wall := time.Since(start)

	for r, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("decentral: rank %d: %w", r, err)
		}
	}
	// Consistency check (§III-B): every replica must have reached the
	// bit-identical likelihood and the same topology.
	ref := results[0]
	refNewick := ref.Tree.Newick()
	for r := 1; r < cfg.Ranks; r++ {
		if math.Float64bits(results[r].LnL) != math.Float64bits(ref.LnL) {
			return nil, nil, fmt.Errorf("decentral: replica divergence: rank %d lnL %v != rank 0 lnL %v", r, results[r].LnL, ref.LnL)
		}
		if results[r].Tree.Newick() != refNewick {
			return nil, nil, fmt.Errorf("decentral: replica divergence: rank %d tree differs", r)
		}
	}

	stats := &RunStats{
		Comm:  world.Meter().Snapshot(),
		Wall:  wall,
		Ranks: cfg.Ranks,
	}
	for r := 0; r < cfg.Ranks; r++ {
		stats.TotalColumns += columns[r]
		if columns[r] > stats.MaxRankColumns {
			stats.MaxRankColumns = columns[r]
		}
		stats.CLVBytesTotal += clvBytes[r]
	}
	return ref, stats, nil
}
