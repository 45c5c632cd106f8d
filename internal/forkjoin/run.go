package forkjoin

import (
	"repro/internal/distrib"
	"repro/internal/enginecore"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// rankBody is what a rank of the fork-join scheme does: rank 0 runs the
// search and steers, every other rank runs the worker command loop and
// holds no result. The master's counters are its engine's and the
// search's.
func rankBody(c *mpi.Comm, d *msa.Dataset, a *distrib.Assignment, ec enginecore.Config, sc search.Config) (*search.Result, telemetry.RankCounters, error) {
	if c.Rank() != 0 {
		work, err := runWorker(c, d, a, ec)
		return nil, work, err
	}
	eng, err := NewMaster(c, d, a, ec)
	if err != nil {
		// The workers are still waiting for their first command; the
		// caller closes the transport, which they observe as peer loss.
		return nil, telemetry.RankCounters{}, err
	}
	var res *search.Result
	var work telemetry.RankCounters
	s, err := search.NewSearcher(eng, d, sc)
	if err == nil {
		res, err = s.Run()
		work = s.Counters()
	}
	work.Add(eng.Work())
	// Always release the workers, even on a failed search — they are
	// blocked on the next command broadcast. They then reach the
	// epilogue, so that is where a failure is reported.
	eng.Close()
	if err != nil {
		err = enginecore.InStep(err)
	}
	return res, work, err
}

// Run executes a full fork-join inference on cfg.Ranks in-process ranks
// and returns the master's result.
func Run(d *msa.Dataset, cfg enginecore.RunConfig) (*search.Result, *enginecore.RunStats, error) {
	return enginecore.Run(d, cfg, rankBody)
}

// RunOnComm executes ONE rank of a fork-join inference over an existing
// communicator (see enginecore.RunOnComm). The result is nil on worker
// ranks; the stats are bit-identical on every rank. A failed search on
// the master is an error on every rank, not a hang.
func RunOnComm(c *mpi.Comm, d *msa.Dataset, cfg enginecore.RunConfig) (*search.Result, *enginecore.RunStats, error) {
	return enginecore.RunOnComm(c, d, cfg, rankBody)
}
