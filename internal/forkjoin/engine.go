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
	"repro/internal/telemetry"
	"repro/internal/traversal"
)

// opcodes of the master→worker command protocol. Every opcode keeps its
// wire byte; 3 and 4 are retired, and a worker sent either ends with the
// unknown-opcode error.
const (
	opTraverse byte = iota + 1
	opEvaluate
	_
	_
	opSetShared
	opSiteRates
	opShutdown
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

	// Steady-state scratch: the command byte, the per-call payload
	// vectors, the padded descriptor and the encoded frames are staged in
	// reusable buffers so the master's inner loops stay allocation-free
	// (the transports copy payloads on Send, so reuse across collectives
	// is safe).
	opBuf   [1]byte
	flatScr []float64
	padded  traversal.Descriptor
	wire    []byte

	search.PerBranch
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
	e := &Engine{comm: comm, local: local}
	e.PerBranch = search.NewPerBranch(e)
	return e, nil
}

// command broadcasts the opcode (control traffic).
func (e *Engine) command(op byte) {
	e.opBuf[0] = op
	e.comm.BcastBytes(0, e.opBuf[:], mpi.ClassControl)
}

// frame is a master→worker plan: a descriptor, a gradient plan or an
// insertion plan, each with its encoded size and its encoder.
type frame interface {
	WireSize() int
	Append([]byte) []byte
}

// bcastFrame ships f to the workers, the traversal class of Table I. On
// a 1-rank world no worker would receive it: the master meters its size
// and skips the encoding, keeping the single-rank hot path
// allocation-free.
func (e *Engine) bcastFrame(f frame) {
	if e.comm.Size() == 1 {
		e.comm.MeterOp(mpi.ClassTraversal, f.WireSize())
		return
	}
	e.wire = f.Append(e.wire[:0])
	e.comm.BcastBytes(0, e.wire, mpi.ClassTraversal)
}

// padDescriptor replicates class 0 across all partitions when the run
// uses joint branch lengths, in the engine's padded descriptor: the
// traversal descriptor a fork-join region ships, the traffic class the
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
func (e *Engine) padDescriptor(d *traversal.Descriptor) *traversal.Descriptor {
	if len(d.Steps) >= e.local.NPart {
		return d
	}
	p := &e.padded
	p.P, p.Q, p.Active = d.P, d.Q, d.Active
	if cap(p.T) < e.local.NPart {
		p.T = make([]float64, e.local.NPart)
		p.Steps = make([][]likelihood.Step, e.local.NPart)
	}
	p.T, p.Steps = p.T[:e.local.NPart], p.Steps[:e.local.NPart]
	for c := range p.T {
		p.T[c] = d.T[0]
		p.Steps[c] = d.Steps[0]
	}
	return p
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
	e.bcastFrame(e.padDescriptor(d))
	e.local.Traverse(d)
	e.comm.Barrier(mpi.ClassControl)
}

// Evaluate implements search.Engine: broadcast descriptor, compute, Reduce
// per-partition log likelihoods to the master.
func (e *Engine) Evaluate(d *traversal.Descriptor) []float64 {
	e.comm.Meter().AddRegion(mpi.ClassLikelihoodEval)
	e.command(opEvaluate)
	e.bcastFrame(e.padDescriptor(d))
	vec := e.local.EvaluateLocal(d)
	return e.comm.Reduce(0, vec, mpi.OpSum, mpi.ClassLikelihoodEval)
}

// AllBranchDerivatives implements search.Engine: one plan broadcast,
// one local pass everywhere, one Reduce of 2·partitions·branches
// derivative sums, folded into linkage classes at the master — a whole
// Newton iteration over every branch of a smoothing sweep in a single
// fork-join region instead of one region per branch, and with a one-edge
// plan one branch's iteration. The sums go over the wire per partition,
// as RAxML-Light communicates branch-length derivatives whatever the
// linkage setting, which is why this class of fork-join traffic scales
// with the partition count. The plan itself is a new protocol, with no
// RAxML-Light wire format to stay faithful to, so it goes unpadded. The
// returned slice is reused by the next call.
func (e *Engine) AllBranchDerivatives(plan *traversal.GradPlan) []float64 {
	e.comm.Meter().AddRegion(mpi.ClassBranchLength)
	e.command(opAllBranchDerivs)
	e.bcastFrame(plan)
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
	e.bcastFrame(plan)
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
	e.bcastFrame(e.padDescriptor(d))
	stats := e.local.OptimizeSiteRatesLocal(d)
	stats = e.comm.Reduce(0, stats, mpi.OpSum, mpi.ClassModelParams)
	res := e.local.ResolveSiteRates(stats)
	e.flatScr = res.Append(e.flatScr[:0])
	e.comm.Bcast(0, e.flatScr, mpi.ClassModelParams)
	e.local.ApplySiteRates(res)
	return res.Scale
}

// Close implements search.Engine: shuts the worker loops down and
// releases the master's intra-rank worker pool.
func (e *Engine) Close() {
	e.command(opShutdown)
	e.local.Close()
}

// Work reports the master's engine's per-rank counters
// (enginecore.Local.Work), its kernel column counts among them.
func (e *Engine) Work() telemetry.RankCounters { return e.local.Work() }

// RunWorker executes the worker command loop on a non-zero rank until the
// master sends opShutdown. Workers hold no tree: they decode whatever the
// master broadcasts and run kernels on their share.
func RunWorker(comm *mpi.Comm, d *msa.Dataset, a *distrib.Assignment, cfg enginecore.Config) error {
	_, err := runWorker(comm, d, a, cfg)
	return err
}

// runWorker is RunWorker plus the counters the rank body reports.
func runWorker(comm *mpi.Comm, d *msa.Dataset, a *distrib.Assignment, cfg enginecore.Config) (telemetry.RankCounters, error) {
	local, err := enginecore.NewLocal(d, a, comm.Rank(), cfg)
	if err != nil {
		return telemetry.RankCounters{}, err
	}
	comm.SetRecorder(cfg.Recorder)
	defer local.Close()
	err = runWorkerLoop(comm, local)
	return local.Work(), err
}

// runWorkerLoop is the worker's command interpreter. Every frame is
// checked against what this worker's run expects before anything indexes
// it: a frame that does not fit ends the loop with an error. Frames are
// decoded into the loop's own descriptor and plans, whose slices — the
// masks' storage too (descMask, planMask) — the next frame reuses.
func runWorkerLoop(comm *mpi.Comm, local *enginecore.Local) error {
	var (
		desc               traversal.Descriptor
		plan               traversal.GradPlan
		insPlan            traversal.InsertPlan
		descMask, planMask []bool
		params             = make([][]float64, local.NPart)
	)
	recvDescriptor := func() (*traversal.Descriptor, error) {
		desc.Active = descMask[:0]
		if err := desc.Decode(comm.BcastBytes(0, nil, mpi.ClassTraversal)); err != nil {
			return nil, err
		}
		if desc.Active != nil {
			descMask = desc.Active
		}
		return &desc, desc.Validate(local.NInner+2, local.NPart)
	}
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

		case opSetShared:
			flat := comm.Bcast(0, nil, mpi.ClassModelParams)
			if len(flat) != local.NPart*model.SharedLen {
				return fmt.Errorf("forkjoin: worker %d: opSetShared frame of %d values, expected %d", comm.Rank(), len(flat), local.NPart*model.SharedLen)
			}
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
			res, err := local.DecodeSiteRates(enc)
			if err != nil {
				return fmt.Errorf("forkjoin: worker %d: opSiteRates frame: %w", comm.Rank(), err)
			}
			local.ApplySiteRates(res)

		case opAllBranchDerivs:
			plan.Active = planMask[:0]
			if err := plan.Decode(comm.BcastBytes(0, nil, mpi.ClassTraversal)); err != nil {
				return err
			}
			if plan.Active != nil {
				planMask = plan.Active
			}
			if err := plan.Validate(local.NInner+2, local.BLClasses()); err != nil {
				return err
			}
			if err := local.AdmitDerivatives(&plan); err != nil {
				return fmt.Errorf("forkjoin: worker %d: opAllBranchDerivs frame: %w", comm.Rank(), err)
			}
			comm.Reduce(0, local.AllBranchDerivativesPerPartition(&plan), mpi.OpSum, mpi.ClassBranchLength)

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
