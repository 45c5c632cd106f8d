package forkjoin

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/distrib"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// RunConfig bundles everything a fork-join inference needs.
type RunConfig struct {
	// Search is the tree-search configuration (executed by the master).
	Search search.Config
	// Ranks is the number of MPI ranks; rank 0 is the master.
	Ranks int
	// Strategy selects cyclic or MPS data distribution.
	Strategy distrib.Strategy
	// Threads is the intra-rank worker count per rank (see
	// EngineConfig.Threads); ≤ 1 runs the kernels serially.
	Threads int
	// Telemetry, when non-nil, supplies one recorder per rank for
	// kernel/collective span timing and search-progress counters
	// (docs/OBSERVABILITY.md). nil disables instrumentation entirely.
	Telemetry *telemetry.Collector
}

// RunStats mirrors decentral.RunStats for apples-to-apples comparisons.
type RunStats struct {
	// Comm is the metered collective trace.
	Comm mpi.Snapshot
	// MaxRankColumns and TotalColumns are kernel column-update counts.
	MaxRankColumns, TotalColumns int64
	// CLVBytesTotal is the summed CLV footprint.
	CLVBytesTotal float64
	// Wall is the measured wall-clock time.
	Wall time.Duration
	// Ranks echoes the rank count.
	Ranks int
}

// Run executes a full fork-join inference: rank 0 runs the search and
// steers; ranks 1..n−1 run the worker command loop.
func Run(d *msa.Dataset, cfg RunConfig) (*search.Result, *RunStats, error) {
	if cfg.Ranks < 1 {
		return nil, nil, fmt.Errorf("forkjoin: %d ranks", cfg.Ranks)
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
	engCfg := EngineConfig{
		Het:                  cfg.Search.Het,
		Subst:                cfg.Search.Subst,
		PerPartitionBranches: cfg.Search.PerPartitionBranches,
		Threads:              cfg.Threads,
	}

	var result *search.Result
	columns := make([]int64, cfg.Ranks)
	clvBytes := make([]float64, cfg.Ranks)
	errs := make([]error, cfg.Ranks)
	var mu sync.Mutex

	start := time.Now()
	world.Run(func(c *mpi.Comm) {
		rec := cfg.Telemetry.Recorder(c.Rank())
		ec := engCfg
		ec.Recorder = rec
		if c.Rank() == 0 {
			eng, err := NewMaster(c, d, assign, ec)
			if err == nil {
				scfg := cfg.Search
				scfg.Telemetry = rec
				var s *search.Searcher
				if s, err = search.NewSearcher(eng, d, scfg); err == nil {
					var res *search.Result
					res, err = s.Run()
					cols, clv := eng.Stats()
					mu.Lock()
					result = res
					columns[0] = cols
					clvBytes[0] = clv
					mu.Unlock()
				}
				// Always release the workers, even on a failed search —
				// they are blocked on the next command broadcast.
				eng.Close()
			}
			if err != nil {
				mu.Lock()
				errs[0] = err
				mu.Unlock()
			}
			return
		}
		ws, err := RunWorkerWithStats(c, d, assign, ec)
		mu.Lock()
		if err != nil {
			errs[c.Rank()] = err
		} else {
			columns[c.Rank()] = ws.Columns
			clvBytes[c.Rank()] = ws.CLVBytes
		}
		mu.Unlock()
	})
	wall := time.Since(start)

	for r, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("forkjoin: rank %d: %w", r, err)
		}
	}
	stats := &RunStats{Comm: world.Meter().Snapshot(), Wall: wall, Ranks: cfg.Ranks}
	for r := 0; r < cfg.Ranks; r++ {
		stats.TotalColumns += columns[r]
		if columns[r] > stats.MaxRankColumns {
			stats.MaxRankColumns = columns[r]
		}
		stats.CLVBytesTotal += clvBytes[r]
	}
	return result, stats, nil
}
