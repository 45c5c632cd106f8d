package enginecore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/distrib"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// Config is the one record an engine of either scheme is provisioned
// from.
type Config struct {
	// Het is the rate-heterogeneity model.
	Het model.Heterogeneity
	// Subst constrains the exchangeabilities (see model.SubstModel).
	Subst model.SubstModel
	// PerPartitionBranches mirrors search.Config.PerPartitionBranches.
	PerPartitionBranches bool
	// Threads, when > 1, splits every kernel invocation across an
	// intra-rank worker pool — the shared-memory axis of the §V hybrid
	// scheme. Results are bit-identical at every thread count
	// (docs/DETERMINISM.md).
	Threads int
	// Recorder, when non-nil, receives this rank's telemetry spans
	// (kernel and collective timing; docs/OBSERVABILITY.md). It never
	// affects results.
	Recorder *telemetry.Recorder
}

// RunConfig bundles everything an inference of either scheme needs.
type RunConfig struct {
	// Search is the tree-search configuration.
	Search search.Config
	// Ranks is the number of in-process ranks (goroutines); RunOnComm
	// uses the communicator's size instead.
	Ranks int
	// Threads is copied into every rank's Config (see there).
	Threads int
	// Telemetry, when non-nil, supplies the recorders for
	// kernel/collective span timing and search-progress counters
	// (docs/OBSERVABILITY.md): one per rank under Run, so it must have
	// been built for at least Ranks ranks; recorder 0 alone under
	// RunOnComm, where it describes this process. nil disables
	// instrumentation entirely.
	Telemetry *telemetry.Collector
}

// RunStats captures the measured execution profile for the cost model
// and the benchmark harness. It is bit-identical on every rank of a run.
type RunStats struct {
	// Comm is rank 0's metered collective trace of the search, frozen
	// before the epilogue's own traffic.
	Comm mpi.Snapshot
	// MaxRankColumns and TotalColumns are kernel column-update counts.
	MaxRankColumns, TotalColumns int64
	// CLVBytesTotal is the summed CLV footprint.
	CLVBytesTotal float64
	// Wall is the measured wall-clock time of this rank's body.
	Wall time.Duration
	// Ranks echoes the rank count.
	Ranks int
}

// Trace is the run as the cluster cost model reads it.
func (s *RunStats) Trace() cluster.Trace {
	return cluster.Trace{
		Comm:           s.Comm,
		MaxRankColumns: s.MaxRankColumns,
		TotalColumns:   s.TotalColumns,
		MeasuredRanks:  s.Ranks,
		CLVBytesTotal:  s.CLVBytesTotal,
	}
}

// TelemetryReport joins the run's span collector with its byte/op meters
// into the end-of-run report (see telemetry.Collector.Finalize). It
// returns nil when telemetry was disabled (c == nil).
func (s *RunStats) TelemetryReport(c *telemetry.Collector, threads int) *telemetry.Report {
	if c == nil {
		return nil
	}
	return c.Finalize(s.Wall, max(threads, 1), s.Comm.Ops[:], s.Comm.Bytes[:])
}

// RankBody is the only thing the two schemes' runs differ in: what one
// rank does between building its engine and closing it. It returns the
// rank's search result (nil on a rank that holds no tree — a fork-join
// worker) and its kernel-side stats. ec.Recorder and sc.Telemetry are
// already set to the rank's recorder.
//
// An error means the rank left the collective sequence where its peers
// cannot follow — a failed engine build, a frame a worker rejected — so
// the driver returns it without further communication and the caller's
// closing of the transport is what the peers observe. The exception is
// an error wrapped with InStep.
type RankBody func(c *mpi.Comm, d *msa.Dataset, a *distrib.Assignment, ec Config, sc search.Config) (res *search.Result, columns int64, clvBytes float64, err error)

type inStepError struct{ error }

func (e inStepError) Unwrap() error { return e.error }

// InStep marks the error of a rank body whose peers nevertheless reach
// the end of their own bodies — the fork-join master after it has
// released its workers. The driver carries such a failure into the
// epilogue, where it becomes an error on every rank instead of a hang.
func InStep(err error) error { return inStepError{err} }

// Run executes a full in-process inference: the per-rank driver of
// RunOnComm on every communicator of a fresh channel world, with the
// rank's own telemetry recorder. Rank 0's result and stats are
// returned. Every collective is metered at rank 0, so the snapshot
// rank 0 freezes on the world's shared meter is what a rank-0 process
// of the same run over TCP freezes on its own.
func Run(d *msa.Dataset, cfg RunConfig, body RankBody) (*search.Result, *RunStats, error) {
	if cfg.Ranks < 1 {
		return nil, nil, fmt.Errorf("enginecore: %d ranks", cfg.Ranks)
	}
	assign, err := Assignment(d, cfg.Ranks)
	if err != nil {
		return nil, nil, err
	}
	results := make([]*search.Result, cfg.Ranks)
	stats := make([]*RunStats, cfg.Ranks)
	errs := make([]error, cfg.Ranks)
	mpi.NewWorld(cfg.Ranks).Run(func(c *mpi.Comm) {
		r := c.Rank()
		results[r], stats[r], errs[r] = runRank(c, d, assign, cfg, cfg.Telemetry.Recorder(r), body)
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return results[0], stats[0], nil
}

// RunOnComm executes ONE rank of an inference over an existing
// communicator — in practice the TCP transport of internal/mpinet,
// where every rank is a separate OS process. All ranks of the world
// must call it with the same dataset and configuration; cfg.Ranks is
// ignored in favor of c.Size().
//
// A transport-level peer failure (heartbeat timeout, connection loss)
// is returned as an error wrapping *mpinet.PeerDownError rather than a
// panic; fault.RunNet unwraps it to drive survivor recovery.
func RunOnComm(c *mpi.Comm, d *msa.Dataset, cfg RunConfig, body RankBody) (*search.Result, *RunStats, error) {
	assign, err := Assignment(d, c.Size())
	if err != nil {
		return nil, nil, err
	}
	return runRank(c, d, assign, cfg, cfg.Telemetry.Recorder(0), body)
}

// Assignment distributes d's patterns over ranks. It is a pure function
// of the pattern counts, so every rank computes the identical one.
func Assignment(d *msa.Dataset, ranks int) (*distrib.Assignment, error) {
	counts := make([]int, d.NPartitions())
	for i, p := range d.Parts {
		counts[i] = p.NPatterns()
	}
	return distrib.Compute(distrib.Cyclic, counts, ranks)
}

// runRank is one rank's run: the scheme's body, then the epilogue every
// rank of either scheme and either transport executes in lockstep.
func runRank(c *mpi.Comm, d *msa.Dataset, assign *distrib.Assignment, cfg RunConfig, rec *telemetry.Recorder, body RankBody) (res *search.Result, stats *RunStats, err error) {
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
		err = fmt.Errorf("enginecore: rank %d: %w", c.Rank(), ce)
	}()

	ec := Config{
		Het:                  cfg.Search.Het,
		Subst:                cfg.Search.Subst,
		PerPartitionBranches: cfg.Search.PerPartitionBranches,
		Threads:              cfg.Threads,
		Recorder:             rec,
	}
	sc := cfg.Search
	sc.Telemetry = rec

	start := time.Now()
	res, cols, clv, bodyErr := body(c, d, assign, ec, sc)
	wall := time.Since(start)
	if bodyErr != nil {
		bodyErr = fmt.Errorf("enginecore: rank %d: %w", c.Rank(), bodyErr)
		if !errors.As(bodyErr, new(inStepError)) {
			return nil, nil, bodyErr
		}
	}

	// Freeze the Table-I accounting before any epilogue traffic.
	frozen := c.Meter().Snapshot()

	// A failure a rank carried here must become an error on every rank
	// before any further collective.
	failed := 0.0
	if bodyErr != nil {
		failed = 1
	}
	if flag := c.Allreduce([]float64{failed}, mpi.OpMax, mpi.ClassControl); flag[0] != 0 {
		if bodyErr != nil {
			return nil, nil, bodyErr
		}
		return nil, nil, fmt.Errorf("enginecore: rank %d: the run failed on a peer", c.Rank())
	}

	// §III-B replica consistency: every rank that holds a result must
	// hold rank 0's, byte for byte — (lnL bits | Newick). The flag rides
	// the OpMax reduction of the column counts, so every rank learns of
	// a divergence anywhere.
	var mine []byte
	if res != nil {
		mine = binary.LittleEndian.AppendUint64(nil, math.Float64bits(res.LnL))
		mine = append(mine, res.Tree.Newick()...)
	}
	ref := c.BcastBytes(0, mine, mpi.ClassControl)
	diverged := 0.0
	if res != nil && !bytes.Equal(ref, mine) {
		diverged = 1
	}
	maxima := c.Allreduce([]float64{diverged, float64(cols)}, mpi.OpMax, mpi.ClassControl)
	if maxima[0] != 0 {
		if diverged != 0 {
			return nil, nil, fmt.Errorf("enginecore: replica divergence: rank %d holds lnL %v and a tree that are not rank 0's", c.Rank(), res.LnL)
		}
		return nil, nil, fmt.Errorf("enginecore: replica divergence detected on a peer of rank %d", c.Rank())
	}

	// Aggregate the kernel-side stats, then broadcast rank 0's frozen
	// meter so all ranks return identical accounting.
	sums := c.Allreduce([]float64{float64(cols), clv}, mpi.OpSum, mpi.ClassControl)
	var meterJSON []byte
	if c.Rank() == 0 {
		if meterJSON, err = json.Marshal(frozen); err != nil {
			return nil, nil, err
		}
	}
	meterJSON = c.BcastBytes(0, meterJSON, mpi.ClassControl)
	stats = &RunStats{
		Wall:           wall,
		Ranks:          c.Size(),
		MaxRankColumns: int64(maxima[1]),
		TotalColumns:   int64(sums[0]),
		CLVBytesTotal:  sums[1],
	}
	if err := json.Unmarshal(meterJSON, &stats.Comm); err != nil {
		return nil, nil, fmt.Errorf("enginecore: decoding rank 0 meter: %w", err)
	}
	return res, stats, nil
}
