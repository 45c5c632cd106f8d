package forkjoin

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/distrib"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/search"
)

// RunOnComm executes ONE rank of a fork-join inference over an existing
// communicator — in practice the TCP transport of internal/mpinet,
// where every rank is a separate OS process. Rank 0 runs the search and
// steers; every other rank runs the worker command loop and returns a
// nil result. cfg.Ranks is ignored in favor of c.Size(); cfg.Telemetry,
// if set, describes this process alone (its rank-0 recorder is used).
//
// After the master's shutdown opcode releases the worker loops, all
// ranks run a deterministic epilogue in lockstep: a status flag (so a
// failed search on the master surfaces as an error on every rank, not a
// hang), kernel-stat aggregation, and a broadcast of rank 0's meter
// snapshot frozen before the epilogue — so the Table-I accounting any
// process reports matches the in-process run.
//
// A transport-level peer failure is returned as an error wrapping
// *mpinet.PeerDownError rather than a panic.
func RunOnComm(c *mpi.Comm, d *msa.Dataset, cfg RunConfig) (res *search.Result, stats *RunStats, err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		ce, ok := p.(*mpi.CommError)
		if !ok {
			panic(p)
		}
		res, stats = nil, nil
		err = fmt.Errorf("forkjoin: rank %d: %w", c.Rank(), ce)
	}()

	counts := make([]int, d.NPartitions())
	for i, p := range d.Parts {
		counts[i] = p.NPatterns()
	}
	assign, err := distrib.Compute(cfg.Strategy, counts, c.Size())
	if err != nil {
		return nil, nil, err
	}
	rec := cfg.Telemetry.Recorder(0)
	ec := EngineConfig{
		Het:                  cfg.Search.Het,
		Subst:                cfg.Search.Subst,
		PerPartitionBranches: cfg.Search.PerPartitionBranches,
		Threads:              cfg.Threads,
		Recorder:             rec,
	}

	start := time.Now()
	var cols int64
	var clv float64
	var runErr error
	if c.Rank() == 0 {
		eng, merr := NewMaster(c, d, assign, ec)
		if merr != nil {
			// Workers are still waiting for the first command broadcast;
			// the caller closes the transport, which they observe as
			// peer loss instead of hanging.
			return nil, nil, fmt.Errorf("forkjoin: rank 0: %w", merr)
		}
		scfg := cfg.Search
		scfg.Telemetry = rec
		s, serr := search.NewSearcher(eng, d, scfg)
		if serr == nil {
			res, serr = s.Run()
		}
		cols, clv = eng.Stats()
		// Always release the workers into the epilogue, even on a failed
		// search — they are blocked on the next command broadcast.
		eng.Close()
		runErr = serr
	} else {
		ws, werr := RunWorkerWithStats(c, d, assign, ec)
		if werr != nil {
			return nil, nil, fmt.Errorf("forkjoin: rank %d: %w", c.Rank(), werr)
		}
		cols, clv = ws.Columns, ws.CLVBytes
	}
	wall := time.Since(start)

	// Freeze the Table-I accounting before any epilogue traffic.
	frozen := c.Meter().Snapshot()

	// Status flag: a failed search on rank 0 must become an error on
	// every rank, in lockstep, before any further collective.
	failed := 0.0
	if runErr != nil {
		failed = 1
	}
	if flag := c.Allreduce([]float64{failed}, mpi.OpMax, mpi.ClassControl); flag[0] != 0 {
		if runErr != nil {
			return nil, nil, fmt.Errorf("forkjoin: rank 0: %w", runErr)
		}
		return nil, nil, fmt.Errorf("forkjoin: rank %d: search failed on the master", c.Rank())
	}

	agg := c.Allreduce([]float64{float64(cols), clv}, mpi.OpSum, mpi.ClassControl)
	maxCols := c.Allreduce([]float64{float64(cols)}, mpi.OpMax, mpi.ClassControl)
	var meterJSON []byte
	if c.Rank() == 0 {
		if meterJSON, err = json.Marshal(frozen); err != nil {
			return nil, nil, err
		}
	}
	meterJSON = c.BcastBytes(0, meterJSON, mpi.ClassControl)
	var comm mpi.Snapshot
	if err := json.Unmarshal(meterJSON, &comm); err != nil {
		return nil, nil, fmt.Errorf("forkjoin: decoding rank 0 meter: %w", err)
	}

	stats = &RunStats{
		Comm:           comm,
		Wall:           wall,
		Ranks:          c.Size(),
		MaxRankColumns: int64(maxCols[0]),
		TotalColumns:   int64(agg[0]),
		CLVBytesTotal:  agg[1],
	}
	return res, stats, nil
}
