package decentral

import (
	"repro/internal/distrib"
	"repro/internal/enginecore"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// rankBody is what a rank of the de-centralized scheme does: build its
// engine replica and run the identical search on it. Its counters are
// the engine's and the search's.
func rankBody(c *mpi.Comm, d *msa.Dataset, a *distrib.Assignment, ec enginecore.Config, sc search.Config) (*search.Result, telemetry.RankCounters, error) {
	eng, err := NewEngine(c, d, a, ec)
	if err != nil {
		return nil, telemetry.RankCounters{}, err
	}
	defer eng.Close()
	s, err := search.NewSearcher(eng, d, sc)
	if err != nil {
		return nil, eng.Work(), err
	}
	res, err := s.Run()
	work := eng.Work()
	work.Add(s.Counters())
	return res, work, err
}

// Run executes a full de-centralized inference on cfg.Ranks in-process
// ranks: every rank materializes its share, builds a Searcher replica,
// and runs the identical algorithm; the epilogue cross-checks the
// replicas for the bit-level consistency the scheme guarantees (§III-B)
// and rank 0's result is returned.
func Run(d *msa.Dataset, cfg enginecore.RunConfig) (*search.Result, *enginecore.RunStats, error) {
	return enginecore.Run(d, cfg, rankBody)
}

// RunOnComm executes ONE rank of a de-centralized inference over an
// existing communicator (see enginecore.RunOnComm). The result and the
// stats are bit-identical on every rank.
func RunOnComm(c *mpi.Comm, d *msa.Dataset, cfg enginecore.RunConfig) (*search.Result, *enginecore.RunStats, error) {
	return enginecore.RunOnComm(c, d, cfg, rankBody)
}
