// Package decentral implements the paper's contribution: the
// de-centralized parallelization scheme of ExaML. Every rank executes a
// local, consistent replica of the entire tree-search algorithm on its
// share of the data; ranks communicate *only* through Allreduce at the two
// call sites the paper identifies — the likelihood evaluation and the
// branch-length derivative computation (plus a rare, small Allreduce for
// the PSR rate-category statistics, the "additional MPI calls to handle
// the CAT model"). There is no master, no traversal-descriptor broadcast,
// and no model-parameter broadcast.
package decentral

import (
	"fmt"

	"repro/internal/distrib"
	"repro/internal/enginecore"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/search"
	"repro/internal/telemetry"
	"repro/internal/traversal"
)

// EngineConfig is enginecore.Config under the name benchmark/ (which a
// PR may not edit) constructs it by; everything else names the record
// directly.
type EngineConfig = enginecore.Config

// Engine is one rank's view of the de-centralized backend. It implements
// search.Engine.
type Engine struct {
	comm  *mpi.Comm
	local *enginecore.Local
	search.PerBranch
}

var _ search.Engine = (*Engine)(nil)

// NewEngine materializes rank comm.Rank()'s data share and builds its
// kernels. The assignment is computed by the caller (identically on every
// rank — it is a pure function of the pattern counts).
func NewEngine(comm *mpi.Comm, d *msa.Dataset, a *distrib.Assignment, cfg enginecore.Config) (*Engine, error) {
	local, err := enginecore.NewLocal(d, a, comm.Rank(), cfg)
	if err != nil {
		return nil, err
	}
	comm.SetRecorder(cfg.Recorder)
	e := &Engine{comm: comm, local: local}
	e.PerBranch = search.NewPerBranch(e)
	return e, nil
}

// NPartitions implements search.Engine.
func (e *Engine) NPartitions() int { return e.local.NPart }

// BLClasses implements search.Engine.
func (e *Engine) BLClasses() int { return e.local.BLClasses() }

// Traverse implements search.Engine: purely local CLV updates, no
// communication — the descriptor broadcast fork-join would need simply
// does not exist here.
func (e *Engine) Traverse(d *traversal.Descriptor) { e.local.Traverse(d) }

// Evaluate implements search.Engine: local traversal + evaluation, then a
// single Allreduce of the per-partition log likelihoods — the first of
// the paper's two Allreduce call sites.
func (e *Engine) Evaluate(d *traversal.Descriptor) []float64 {
	vec := e.local.EvaluateLocal(d)
	if e.comm.Rank() == 0 {
		e.comm.Meter().AddRegion(mpi.ClassLikelihoodEval)
	}
	return e.comm.Allreduce(vec, mpi.OpSum, mpi.ClassLikelihoodEval)
}

// AllBranchDerivatives implements search.Engine: one local pre-order
// pass plus every edge's sum table and derivatives, folded into linkage
// classes, then ONE wide Allreduce of 2·classes·branches doubles — the
// second of the paper's two Allreduce call sites. A whole Newton
// iteration over every branch of a smoothing sweep costs a single
// collective where a branch-by-branch pass pays one per branch — the
// O(branches·iters) → O(iters) collective reduction of the batched
// gradient (docs/PERFORMANCE.md); a one-edge plan is one branch's
// iteration. The returned slice is reused by the next call.
func (e *Engine) AllBranchDerivatives(plan *traversal.GradPlan) []float64 {
	vec := e.local.ByClass(e.local.AllBranchDerivativesPerPartition(plan), plan.NBranches())
	if e.comm.Rank() == 0 {
		e.comm.Meter().AddRegion(mpi.ClassBranchLength)
	}
	return e.comm.Allreduce(vec, mpi.OpSum, mpi.ClassBranchLength)
}

// ScoreInsertions implements search.Engine: the plan's traversals and
// one insertion + evaluation per candidate locally, then ONE wide
// Allreduce of candidates·partitions log likelihoods — a whole SPR prune
// point in a single collective where per-candidate scoring paid one
// Allreduce per regraft (docs/PERFORMANCE.md §8). The returned slice is
// reused by the next call.
func (e *Engine) ScoreInsertions(plan *traversal.InsertPlan) []float64 {
	vec := e.local.ScoreInsertionsLocal(plan)
	if e.comm.Rank() == 0 {
		e.comm.Meter().AddRegion(mpi.ClassLikelihoodEval)
	}
	return e.comm.Allreduce(vec, mpi.OpSum, mpi.ClassLikelihoodEval)
}

// SetShared implements search.Engine: every rank computed the identical
// parameter trajectory, so this is a purely local apply — the fork-join
// broadcast the de-centralized scheme eliminates.
func (e *Engine) SetShared(params [][]float64) {
	if err := e.local.SetSharedLocal(params); err != nil {
		panic(fmt.Sprintf("decentral: set shared: %v", err))
	}
}

// OptimizeSiteRates implements search.Engine (PSR only): the per-site
// rate scan locally, one small Allreduce of the per-partition rate-cell statistics,
// then local category finalize + rate normalization.
func (e *Engine) OptimizeSiteRates(d *traversal.Descriptor) []float64 {
	classes := e.local.BLClasses()
	if e.local.Het != model.PSR {
		ones := make([]float64, classes)
		for c := range ones {
			ones[c] = 1
		}
		return ones
	}
	stats := e.local.OptimizeSiteRatesLocal(d)
	if e.comm.Rank() == 0 {
		e.comm.Meter().AddRegion(mpi.ClassModelParams)
	}
	stats = e.comm.Allreduce(stats, mpi.OpSum, mpi.ClassModelParams)
	res := e.local.ResolveSiteRates(stats)
	e.local.ApplySiteRates(res)
	return res.Scale
}

// Close implements search.Engine: releases the rank's intra-rank worker
// pool.
func (e *Engine) Close() { e.local.Close() }

// Work reports this rank's engine's per-rank counters
// (enginecore.Local.Work), its kernel column counts among them.
func (e *Engine) Work() telemetry.RankCounters { return e.local.Work() }
