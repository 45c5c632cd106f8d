package likelihood

import (
	"time"

	"repro/internal/telemetry"
	"repro/internal/threadpool"
)

// This file is the kernel's program: the staged operations of one engine
// call, their execution block by block, and the join.
//
// A kernel call does not compute; it stages. Traverse, Evaluate,
// Contract, Derivatives and the insertion calls resolve their
// operands, build their P matrices and tip tables on the caller's
// goroutine, and append one runArgs per block operation to k.prog: one
// opcode per call, whatever the rate model, RunOp picking the Γ or PSR
// block worker when the operation runs. An SPR candidate is one call and
// one operation, its pre-order step included (ScoreInsertion). The
// engine then runs the whole program over one pattern block before it
// moves to the next —
// RunBlock, one (kernel, block) item of the rank's single dispatch for
// the call — and Finish combines what the reducing
// operations left in their per-block slots. Sites are independent, so an
// operation may read what an earlier operation of the program wrote for
// the same sites and nothing else; executing block-major instead of
// op-major therefore changes no value, and the reductions are combined
// exactly as before: per operation, over the blocks in index order
// (docs/DETERMINISM.md §2 and §8).
//
// Everything a staged operation points to lives until Finish: CLV and
// outer slots and the sum tables belong to the kernel, cached P matrices
// to the cache (which only resets between programs), and every table
// built for one operation — uncached P matrices, tip and prep tables,
// derivative exponentials — comes from the kernel's program arena
// (ProgramArena; a rank's kernels share one), which grows to the largest
// call and is reset by Finish. Steady-state calls therefore allocate
// nothing.

// runOp selects the staged block operation: one code per kernel call
// that stages it, whatever the rate model. RunOp picks the Γ or PSR
// block worker from the kernel's rate model, which never changes.
type runOp uint8

const (
	opNewview runOp = iota
	opEvaluate
	opContract
	opDerivatives
	opPrepareInsertion
	opScoreInsertion
)

// class returns the kernel class a worker that times a program charges a
// block operation to: every conditional-vector combine, post- or
// pre-order, is newview; sum-table preparation is derivatives time; the
// SPR insertion table and the candidates — each with its pre-order step
// fused in — are insert time.
func (op runOp) class() telemetry.KernelClass {
	switch op {
	case opNewview:
		return telemetry.KernelNewview
	case opEvaluate:
		return telemetry.KernelEvaluate
	case opContract, opDerivatives:
		return telemetry.KernelDerivatives
	}
	return telemetry.KernelInsertion
}

// runArgs is one staged block operation. Workers only read it; every
// field is set at staging and stable until Finish, so concurrent block
// execution stays race-free.
type runArgs struct {
	op runOp
	// red is the operation's slot in a block's row of partials, −1 for an
	// operation that reduces nothing.
	red int32

	dclv   []float64
	dscale []int32
	// oa/ob double as Newview's children and Evaluate/Prepare's (p, q).
	oa, ob operand
	// pa doubles as Evaluate's single P-matrix set.
	pa, pb [][ns * ns]float64
	// tabA/tabB double as the prep tip tables (tabP, tabQ).
	tabA, tabB []float64
	// catW is the Γ category weight; the PSR workers do not read it.
	catW float64

	// An insertion score is its candidate's pre-order step — the Newview
	// fields above — plus its far operand, P(half) and the far tip's
	// table (ScoreInsertion).
	far  operand
	ph   [][ns * ns]float64
	tabF []float64

	// sumTab is the sum table a contraction fills or a derivative
	// operation reads; ex and lam are the derivative's per-category
	// exponentials and λ·r factors (exponentials).
	sumTab  []float64
	ex, lam [][ns]float64
}

// blockPartial is one pattern block's contribution to a reducing
// operation. Each block writes only its own row of slots; Finish combines
// the rows in block-index order, which keeps every reduction
// bit-identical regardless of how blocks were scheduled onto threads. A
// row is padded to whole cache lines (redStride is even): adjacent blocks
// run on different threads, and two workers depositing into one line
// would ping-pong it on every store (docs/PERFORMANCE.md §6).
type blockPartial struct {
	// a is an evaluation's or insertion score's partial log likelihood, or
	// a derivative's d1; b is the derivative's d2.
	a, b float64
	// rescaled counts the sites an insertion-score block rescaled.
	rescaled int64
	_        int64
}

// stage appends a block operation to the program and returns it for the
// caller to fill in; the pointer is good until the next stage call.
func (k *Kernel) stage(op runOp) *runArgs {
	k.prog = append(k.prog, runArgs{op: op, red: -1})
	return &k.prog[len(k.prog)-1]
}

// stageReducing is stage for an operation that leaves a partial per block:
// its folded result is the program's next one (LnL, Gradient).
func (k *Kernel) stageReducing(op runOp) *runArgs {
	ra := k.stage(op)
	ra.red = int32(k.nRed)
	k.nRed++
	if k.nRed > k.redStride {
		// Nothing of this program has run yet, so the slots hold nothing.
		k.redStride = 2 * k.nRed
		k.parts = make([]blockPartial, k.NBlocks()*k.redStride)
	}
	return ra
}

// Staged reports how many block operations the program holds.
func (k *Kernel) Staged() int { return len(k.prog) }

// NBlocks returns the number of pattern blocks — the items a flush of
// this kernel's program consists of.
func (k *Kernel) NBlocks() int { return threadpool.NumBlocks(k.nPat) }

// RunBlock executes the staged program over pattern block blk: every
// operation in staging order, each over the block's sites only. Blocks
// are independent, so RunBlock calls for different blocks may run
// concurrently; the caller joins them before Finish. With ns non-nil the
// time spent is added to ns by operation class (two clock reads per run
// of same-class operations).
func (k *Kernel) RunBlock(blk int, ns *[telemetry.NumKernelClasses]int64) {
	if ns == nil || len(k.prog) == 0 {
		for op := range k.prog {
			k.RunOp(op, blk)
		}
		return
	}
	start := time.Now()
	cls, since := k.prog[0].op.class(), time.Duration(0)
	for op := range k.prog {
		if c := k.prog[op].op.class(); c != cls {
			now := time.Since(start)
			ns[cls] += int64(now - since)
			cls, since = c, now
		}
		k.RunOp(op, blk)
	}
	ns[cls] += int64(time.Since(start) - since)
}

// RunOp executes staged operation op over pattern block blk: the cell of
// the (operation, block) grid that RunBlock walks a column of. An
// operation may read what earlier operations of the program wrote for
// the same block, so any order that runs a block's operations in staging
// order is valid.
func (k *Kernel) RunOp(op, blk int) {
	ra := &k.prog[op]
	lo, hi := threadpool.BlockBounds(blk, k.nPat)
	var part *blockPartial
	if ra.red >= 0 {
		part = &k.parts[blk*k.redStride+int(ra.red)]
	}
	switch ra.op {
	case opNewview:
		if k.psr {
			k.newviewPSRSoABlock(ra.dclv, ra.dscale, ra.oa, ra.ob, ra.tabA, ra.tabB, ra.pa, ra.pb, lo, hi)
		} else {
			k.newviewGammaSoABlock(ra.dclv, ra.dscale, ra.oa, ra.ob, ra.tabA, ra.tabB, ra.pa, ra.pb, lo, hi)
		}

	case opEvaluate:
		if k.psr {
			part.a = k.evaluatePSRSoABlock(ra.oa, ra.ob, ra.pa, ra.tabB, lo, hi)
		} else {
			part.a = k.evaluateGammaSoABlock(ra.oa, ra.ob, ra.pa, ra.tabB, ra.catW, lo, hi)
		}

	case opContract:
		if k.psr {
			k.preparePSRSoABlock(ra.sumTab, ra.oa, ra.ob, ra.tabA, ra.tabB, lo, hi)
		} else {
			k.prepareGammaSoABlock(ra.sumTab, ra.oa, ra.ob, ra.tabA, ra.tabB, lo, hi)
		}

	case opDerivatives:
		if k.psr {
			part.a, part.b = k.derivativesPSRBlock(ra.sumTab, ra.ex, ra.lam, lo, hi)
		} else {
			ex, lam := (*[gammaCats][ns]float64)(ra.ex), (*[gammaCats][ns]float64)(ra.lam)
			part.a, part.b = k.derivativesGammaBlock(ra.sumTab, ex, lam, ra.catW, lo, hi)
		}

	case opPrepareInsertion:
		if k.psr {
			k.prepareInsertionPSRSoABlock(ra.ob, ra.pa, ra.tabB, lo, hi)
		} else {
			k.prepareInsertionGammaSoABlock(ra.ob, ra.pa, ra.tabB, lo, hi)
		}

	// Insertion scores (insertion.go): the candidate's pre-order step, the
	// inserted vertex's Newview and the evaluation against the insertion
	// table in one operation — per site group under Γ, one worker after
	// the other under PSR.
	case opScoreInsertion:
		if k.psr {
			k.newviewPSRSoABlock(ra.dclv, ra.dscale, ra.oa, ra.ob, ra.tabA, ra.tabB, ra.pa, ra.pb, lo, hi)
			near := operand{clv: ra.dclv, scale: ra.dscale}
			part.a, part.rescaled = k.scoreInsertionPSRSoABlock(near, ra.far, ra.ph, ra.tabF, lo, hi)
		} else {
			part.a, part.rescaled = k.scoreInsertionGammaSoABlock(ra, lo, hi)
		}
	}
}

// Finish is the join: it folds every reducing operation's per-block
// partials — per operation, over the blocks in index order — into the
// program's results, resets the arena the program's tables came from and
// empties the program. The results stay readable until the next
// operation is staged. Call it after every block has run — of this
// kernel's program and of every program staged on the same arena.
func (k *Kernel) Finish() {
	if len(k.prog) == 0 {
		return
	}
	k.res = k.res[:0]
	nb := k.NBlocks()
	for i := range k.prog {
		red := int(k.prog[i].red)
		if red < 0 {
			continue
		}
		var r [2]float64
		for b := 0; b < nb; b++ {
			p := &k.parts[b*k.redStride+red]
			r[0] += p.a
			r[1] += p.b
			k.counts[telemetry.RankInsertionRescales] += p.rescaled
			*p = blockPartial{}
		}
		k.res = append(k.res, r)
	}
	k.prog = k.prog[:0]
	k.nRed = 0
	k.mem.reset()
	k.pm.finish()
}

// Flush runs the staged program on pool p (nil: on the calling goroutine)
// and joins it — what an engine does for all of a rank's kernels in one
// dispatch, for a kernel that stands alone.
func (k *Kernel) Flush(p *threadpool.Pool) {
	if k.flushFn == nil {
		k.flushFn = func(_, blk int) { k.RunBlock(blk, nil) }
	}
	if len(k.prog) > 0 {
		p.Dispatch(k.NBlocks(), k.flushFn)
	}
	k.Finish()
}

// LnL returns the i-th result of the last finished program as a log
// likelihood: results are numbered over the program's evaluations,
// derivative evaluations and insertion scores in staging order.
func (k *Kernel) LnL(i int) float64 { return k.res[i][0] }

// Gradient returns the i-th result of the last finished program as a
// (d lnL/dt, d² lnL/dt²) pair; see LnL for the numbering.
func (k *Kernel) Gradient(i int) (d1, d2 float64) { return k.res[i][0], k.res[i][1] }

// arena hands out slices that stay valid until reset. It keeps one chunk;
// a take that does not fit starts a bigger one and leaves the old chunk
// to whoever still points into it, so the chunk grows to the largest
// program's need and steady-state takes allocate nothing.
type arena[T any] struct {
	chunk []T // len is what has been handed out
	spilt int // handed out from chunks since outgrown, this program
}

// take returns n elements, contents unspecified.
func (a *arena[T]) take(n int) []T {
	if len(a.chunk)+n > cap(a.chunk) {
		a.spilt += len(a.chunk)
		a.chunk = make([]T, 0, max(2*cap(a.chunk), a.spilt+n))
	}
	lo := len(a.chunk)
	a.chunk = a.chunk[:lo+n]
	return a.chunk[lo : lo+n : lo+n]
}

// reset takes everything back.
func (a *arena[T]) reset() {
	a.chunk = a.chunk[:0]
	a.spilt = 0
}

// ProgramArena is the memory the per-operation tables of staged programs
// come from: tip and prep tables and the derivative exponential tables.
// A new kernel has its own. An engine that drives several kernels from
// one goroutine hands them one arena (ShareArena): a partition-rich rank
// then builds the tables of every kernel's program in the same,
// cache-resident memory instead of in one region per kernel, and grows
// one chunk per run instead of one per kernel. Finish of any sharing kernel resets the arena, so the engine
// must have run every program staged on it by then — run each kernel's
// program before staging the next kernel, or run them all before
// finishing the first.
type ProgramArena struct {
	tabs  arena[float64]
	exLam arena[[ns]float64]
}

func (a *ProgramArena) reset() {
	a.tabs.reset()
	a.exLam.reset()
}

// ShareArena makes k take its programs' tables from a. Call it between
// programs.
func (k *Kernel) ShareArena(a *ProgramArena) { k.mem = a }
