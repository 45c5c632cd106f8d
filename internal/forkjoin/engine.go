// Package forkjoin implements the classical fork-join parallelization
// scheme of RAxML-Light — the comparator the paper measures ExaML against.
//
// A dedicated master process (rank 0) is the only process holding the tree
// and the search state. Every parallel region begins with the master
// broadcasting a command: the traversal descriptor (CLV schedule + branch
// lengths — under -M, p·(2n−3) of them), changed model-parameter arrays,
// or branch-length proposals; and ends with a Reduce of results back to
// the master. Workers are completely agnostic of tree semantics: they
// execute numbered kernel operations on their data share, exactly as the
// paper describes.
//
// The consequence the paper quantifies: with p partitions, parameter and
// descriptor payloads grow with p, making region startup bandwidth-bound —
// the traffic Table I decomposes and Figure 4's crossover stems from.
package forkjoin

import (
	"fmt"

	"repro/internal/distrib"
	"repro/internal/enginecore"
	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/search"
	"repro/internal/traversal"
)

// opcodes of the master→worker command protocol.
const (
	opTraverse byte = iota + 1
	opEvaluate
	opPrepareBranch
	opDerivatives
	opSetShared
	opSiteRates
	opShutdown
	// opAllBranchDerivs is appended after opShutdown so every pre-existing
	// opcode keeps its wire byte.
	opAllBranchDerivs
	opScoreInsertions
)

// EngineConfig is enginecore.Config under the name benchmark/ (which a
// PR may not edit) constructs it by; everything else names the record
// directly.
type EngineConfig = enginecore.Config

// Engine is the master-side search.Engine. It owns rank 0's data share
// (the master participates in kernel work, as in RAxML-Light) and steers
// the workers.
type Engine struct {
	comm  *mpi.Comm
	local *enginecore.Local

	// Steady-state scratch: the command byte and the per-call payload
	// vectors are staged in reusable buffers so the master's inner loops
	// stay allocation-free (the transports copy payloads on Send, so
	// reuse across collectives is safe).
	opBuf   [1]byte
	flatScr []float64
}

var _ search.Engine = (*Engine)(nil)

// NewMaster builds the master engine on rank 0.
func NewMaster(comm *mpi.Comm, d *msa.Dataset, a *distrib.Assignment, cfg enginecore.Config) (*Engine, error) {
	if comm.Rank() != 0 {
		return nil, fmt.Errorf("forkjoin: master must be rank 0, got %d", comm.Rank())
	}
	local, err := enginecore.NewLocal(d, a, 0, cfg)
	if err != nil {
		return nil, err
	}
	comm.SetRecorder(cfg.Recorder)
	return &Engine{comm: comm, local: local}, nil
}

// command broadcasts the opcode (control traffic).
func (e *Engine) command(op byte) {
	e.opBuf[0] = op
	e.comm.BcastBytes(0, e.opBuf[:], mpi.ClassControl)
}

// bcastDescriptor ships the traversal descriptor — the traffic class the
// paper's Table I shows dominating fork-join volume.
//
// Wire-format fidelity note: RAxML-Light's traversalInfo records carry
// per-partition branch-length slots for every step *even under joint
// branch-length estimation* (the C structs have NUM_BRANCHES-wide z
// arrays), so the on-wire descriptor always scales with the partition
// count. We replicate that here by padding a single-class descriptor to
// the partition count before encoding; workers execute the class their
// partition maps to, so semantics are unchanged — only the metered (and
// historically real) bytes grow.
func (e *Engine) bcastDescriptor(d *traversal.Descriptor) {
	if e.comm.Size() == 1 {
		// No worker would receive the frame: meter the padded wire size
		// (identical to what Encode would produce) and skip the
		// encoding, keeping the single-rank hot path allocation-free.
		classes := len(d.Steps)
		if classes < e.local.NPart {
			classes = e.local.NPart
		}
		e.comm.MeterOp(mpi.ClassTraversal, d.WireSizeForClasses(classes))
		return
	}
	e.comm.BcastBytes(0, e.padDescriptor(d).Encode(), mpi.ClassTraversal)
}

// padDescriptor replicates class 0 across all partitions when the run
// uses joint branch lengths.
func (e *Engine) padDescriptor(d *traversal.Descriptor) *traversal.Descriptor {
	if len(d.Steps) >= e.local.NPart {
		return d
	}
	padded := &traversal.Descriptor{
		P:      d.P,
		Q:      d.Q,
		T:      make([]float64, e.local.NPart),
		Steps:  make([][]likelihood.Step, e.local.NPart),
		Active: d.Active,
	}
	for c := 0; c < e.local.NPart; c++ {
		padded.T[c] = d.T[0]
		padded.Steps[c] = d.Steps[0]
	}
	return padded
}

// NPartitions implements search.Engine.
func (e *Engine) NPartitions() int { return e.local.NPart }

// BLClasses implements search.Engine.
func (e *Engine) BLClasses() int { return e.local.BLClasses() }

// Traverse implements search.Engine: broadcast descriptor, all ranks
// execute, barrier-terminated region (the paper's "conditional likelihood
// arrays" region).
func (e *Engine) Traverse(d *traversal.Descriptor) {
	e.comm.Meter().AddRegion(mpi.ClassTraversal)
	e.command(opTraverse)
	e.bcastDescriptor(d)
	e.local.Traverse(d)
	e.comm.Barrier(mpi.ClassControl)
}

// Evaluate implements search.Engine: broadcast descriptor, compute, Reduce
// per-partition log likelihoods to the master.
func (e *Engine) Evaluate(d *traversal.Descriptor) []float64 {
	e.comm.Meter().AddRegion(mpi.ClassLikelihoodEval)
	e.command(opEvaluate)
	e.bcastDescriptor(d)
	vec := e.local.EvaluateLocal(d)
	return e.comm.Reduce(0, vec, mpi.OpSum, mpi.ClassLikelihoodEval)
}

// PrepareBranch implements search.Engine: broadcast descriptor, build sum
// tables everywhere.
func (e *Engine) PrepareBranch(d *traversal.Descriptor) {
	e.comm.Meter().AddRegion(mpi.ClassTraversal)
	e.command(opPrepareBranch)
	e.bcastDescriptor(d)
	e.local.PrepareLocal(d)
	e.comm.Barrier(mpi.ClassControl)
}

// BranchDerivatives implements search.Engine: broadcast per-partition
// trial lengths, Reduce 2·partitions derivative sums, fold into linkage
// classes at the master. The per-partition wire granularity mirrors
// RAxML-Light (see DerivativesPerPartition) and is what makes this class
// of fork-join traffic scale with the partition count.
func (e *Engine) BranchDerivatives(ts []float64) (d1, d2 []float64) {
	classes := e.local.BLClasses()
	e.comm.Meter().AddRegion(mpi.ClassBranchLength)
	e.command(opDerivatives)
	perPart := e.local.PartitionLengths(ts)
	e.comm.Bcast(0, perPart, mpi.ClassBranchLength)
	out := e.comm.Reduce(0, e.local.DerivativesPerPartition(perPart), mpi.OpSum, mpi.ClassBranchLength)
	res := e.local.ByClass(out, 1)
	return res[:classes], res[classes:]
}

// bcastGradPlan ships the all-branch gradient plan. Unlike
// bcastDescriptor there is no RAxML-Light wire format to stay faithful
// to — the batched gradient is a new protocol — so the plan is encoded
// exactly once per class with no partition-count padding.
func (e *Engine) bcastGradPlan(p *traversal.GradPlan) {
	if e.comm.Size() == 1 {
		// No worker would receive the frame: meter the actual wire size
		// and skip the encoding, keeping the single-rank hot path
		// allocation-free.
		e.comm.MeterOp(mpi.ClassTraversal, p.WireSize())
		return
	}
	e.comm.BcastBytes(0, p.Encode(), mpi.ClassTraversal)
}

// AllBranchDerivatives implements search.Engine: one plan broadcast,
// one local pass everywhere, one Reduce of 2·partitions·branches
// derivative sums, folded into linkage classes at the master — a whole
// Newton iteration over every branch in a single fork-join region
// instead of one region per branch. The returned slice is reused by the
// next call.
func (e *Engine) AllBranchDerivatives(plan *traversal.GradPlan) []float64 {
	e.comm.Meter().AddRegion(mpi.ClassBranchLength)
	e.command(opAllBranchDerivs)
	e.bcastGradPlan(plan)
	out := e.comm.Reduce(0, e.local.AllBranchDerivativesPerPartition(plan), mpi.OpSum, mpi.ClassBranchLength)
	return e.local.ByClass(out, plan.NBranches())
}

// ScoreInsertions implements search.Engine: one plan broadcast, the
// plan's traversals and one insertion + evaluation per candidate
// everywhere, one Reduce of candidates·partitions log likelihoods — a
// whole SPR prune point in a single fork-join region instead of one
// descriptor broadcast per regraft. Like the gradient plan this is a
// new protocol, so the plan is encoded once with no partition-count
// padding.
func (e *Engine) ScoreInsertions(plan *traversal.InsertPlan) []float64 {
	e.comm.Meter().AddRegion(mpi.ClassLikelihoodEval)
	e.command(opScoreInsertions)
	if e.comm.Size() == 1 {
		// No worker would receive the frame: meter its size and skip the
		// encoding, keeping the single-rank hot path allocation-free.
		e.comm.MeterOp(mpi.ClassTraversal, plan.WireSize())
	} else {
		e.comm.BcastBytes(0, plan.Encode(), mpi.ClassTraversal)
	}
	vec := e.local.ScoreInsertionsLocal(plan)
	return e.comm.Reduce(0, vec, mpi.OpSum, mpi.ClassLikelihoodEval)
}

// SetShared implements search.Engine: the master must broadcast the full
// per-partition parameter matrix (p·SharedLen doubles) — the traffic that
// becomes bandwidth-bound with many partitions.
func (e *Engine) SetShared(params [][]float64) {
	e.comm.Meter().AddRegion(mpi.ClassModelParams)
	e.command(opSetShared)
	if cap(e.flatScr) < len(params)*model.SharedLen {
		e.flatScr = make([]float64, 0, len(params)*model.SharedLen)
	}
	flat := e.flatScr[:0]
	for _, p := range params {
		flat = append(flat, p...)
	}
	e.flatScr = flat
	e.comm.Bcast(0, flat, mpi.ClassModelParams)
	if err := e.local.SetSharedLocal(params); err != nil {
		panic(fmt.Sprintf("forkjoin: set shared: %v", err))
	}
}

// OptimizeSiteRates implements search.Engine: descriptor broadcast, local
// optimization everywhere, cell-statistics Reduce to the master, master
// resolves categories and broadcasts the resolution.
func (e *Engine) OptimizeSiteRates(d *traversal.Descriptor) []float64 {
	classes := e.local.BLClasses()
	if e.local.Het != model.PSR {
		ones := make([]float64, classes)
		for c := range ones {
			ones[c] = 1
		}
		return ones
	}
	e.comm.Meter().AddRegion(mpi.ClassModelParams)
	e.command(opSiteRates)
	e.bcastDescriptor(d)
	stats := e.local.OptimizeSiteRatesLocal(d)
	stats = e.comm.Reduce(0, stats, mpi.OpSum, mpi.ClassModelParams)
	res := enginecore.ResolveSiteRates(stats, e.local.NPart, e.local.PerPartBranches)
	e.comm.Bcast(0, res.Encode(), mpi.ClassModelParams)
	e.local.ApplySiteRates(res)
	return res.Scale
}

// Close implements search.Engine: shuts the worker loops down, records
// the master's receive counters and releases its intra-rank worker pool.
func (e *Engine) Close() {
	e.command(opShutdown)
	e.comm.RecordRecvStats()
	e.local.Close()
}

// Stats reports the master's local kernel work and CLV footprint.
func (e *Engine) Stats() (columns int64, clvBytes float64) { return e.local.Stats() }

// RunWorker executes the worker command loop on a non-zero rank until the
// master sends opShutdown. Workers hold no tree: they decode whatever the
// master broadcasts and run kernels on their share.
func RunWorker(comm *mpi.Comm, d *msa.Dataset, a *distrib.Assignment, cfg enginecore.Config) error {
	_, _, err := runWorker(comm, d, a, cfg)
	return err
}

// runWorker is RunWorker plus the kernel-side stats the rank body
// reports.
func runWorker(comm *mpi.Comm, d *msa.Dataset, a *distrib.Assignment, cfg enginecore.Config) (columns int64, clvBytes float64, err error) {
	local, err := enginecore.NewLocal(d, a, comm.Rank(), cfg)
	if err != nil {
		return 0, 0, err
	}
	comm.SetRecorder(cfg.Recorder)
	defer local.Close()
	defer comm.RecordRecvStats()
	if err := runWorkerLoop(comm, local); err != nil {
		return 0, 0, err
	}
	columns, clvBytes = local.Stats()
	return columns, clvBytes, nil
}

// runWorkerLoop is the worker's command interpreter. Every frame is
// checked against what this worker's run expects before anything indexes
// it: a frame that does not fit ends the loop with an error.
func runWorkerLoop(comm *mpi.Comm, local *enginecore.Local) error {
	recvDescriptor := func() (*traversal.Descriptor, error) {
		d, err := traversal.Decode(comm.BcastBytes(0, nil, mpi.ClassTraversal))
		if err != nil {
			return nil, err
		}
		return d, d.Validate(local.NInner+2, local.NPart)
	}
	var insPlan traversal.InsertPlan // decoded into, slices reused
	for {
		op := comm.BcastBytes(0, nil, mpi.ClassControl)
		if len(op) != 1 {
			return fmt.Errorf("forkjoin: worker %d: bad opcode frame (%d bytes)", comm.Rank(), len(op))
		}
		switch op[0] {
		case opTraverse:
			desc, err := recvDescriptor()
			if err != nil {
				return err
			}
			local.Traverse(desc)
			comm.Barrier(mpi.ClassControl)

		case opEvaluate:
			desc, err := recvDescriptor()
			if err != nil {
				return err
			}
			comm.Reduce(0, local.EvaluateLocal(desc), mpi.OpSum, mpi.ClassLikelihoodEval)

		case opPrepareBranch:
			desc, err := recvDescriptor()
			if err != nil {
				return err
			}
			local.PrepareLocal(desc)
			comm.Barrier(mpi.ClassControl)

		case opDerivatives:
			ts := comm.Bcast(0, nil, mpi.ClassBranchLength)
			if len(ts) != local.NPart {
				return fmt.Errorf("forkjoin: worker %d: opDerivatives frame of %d branch lengths, expected %d", comm.Rank(), len(ts), local.NPart)
			}
			if err := local.AdmitDerivatives(nil); err != nil {
				return fmt.Errorf("forkjoin: worker %d: opDerivatives frame: %w", comm.Rank(), err)
			}
			comm.Reduce(0, local.DerivativesPerPartition(ts), mpi.OpSum, mpi.ClassBranchLength)

		case opSetShared:
			flat := comm.Bcast(0, nil, mpi.ClassModelParams)
			if len(flat) != local.NPart*model.SharedLen {
				return fmt.Errorf("forkjoin: worker %d: opSetShared frame of %d values, expected %d", comm.Rank(), len(flat), local.NPart*model.SharedLen)
			}
			params := make([][]float64, local.NPart)
			for p := 0; p < local.NPart; p++ {
				params[p] = flat[p*model.SharedLen : (p+1)*model.SharedLen]
			}
			if err := local.SetSharedLocal(params); err != nil {
				return err
			}

		case opSiteRates:
			desc, err := recvDescriptor()
			if err != nil {
				return err
			}
			stats := local.OptimizeSiteRatesLocal(desc)
			comm.Reduce(0, stats, mpi.OpSum, mpi.ClassModelParams)
			enc := comm.Bcast(0, nil, mpi.ClassModelParams)
			res, err := enginecore.DecodeSiteRateResolution(enc, local.NPart, local.PerPartBranches)
			if err != nil {
				return fmt.Errorf("forkjoin: worker %d: opSiteRates frame: %w", comm.Rank(), err)
			}
			local.ApplySiteRates(res)

		case opAllBranchDerivs:
			plan, err := traversal.DecodeGradPlan(comm.BcastBytes(0, nil, mpi.ClassTraversal))
			if err != nil {
				return err
			}
			if err := plan.Validate(local.NInner+2, local.BLClasses()); err != nil {
				return err
			}
			if err := local.AdmitDerivatives(plan); err != nil {
				return fmt.Errorf("forkjoin: worker %d: opAllBranchDerivs frame: %w", comm.Rank(), err)
			}
			comm.Reduce(0, local.AllBranchDerivativesPerPartition(plan), mpi.OpSum, mpi.ClassBranchLength)

		case opScoreInsertions:
			if err := insPlan.Decode(comm.BcastBytes(0, nil, mpi.ClassTraversal)); err != nil {
				return err
			}
			if err := insPlan.Validate(local.NInner + 2); err != nil {
				return err
			}
			comm.Reduce(0, local.ScoreInsertionsLocal(&insPlan), mpi.OpSum, mpi.ClassLikelihoodEval)

		case opShutdown:
			return nil

		default:
			return fmt.Errorf("forkjoin: worker %d: unknown opcode %d", comm.Rank(), op[0])
		}
	}
}
