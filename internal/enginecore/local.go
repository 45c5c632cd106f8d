// Package enginecore holds the rank-local state and operations shared by
// both parallelization schemes: a rank's kernels over its data shares, and
// the local halves of every likelihood operation. The fork-join and
// de-centralized engines differ *only* in how they stitch these local
// operations together with communication — which is precisely the paper's
// point.
package enginecore

import (
	"fmt"
	"math"
	"time"

	"repro/internal/distrib"
	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/msa"
	"repro/internal/telemetry"
	"repro/internal/threadpool"
	"repro/internal/traversal"
)

// Local is one rank's kernel state.
//
// An engine call is the unit of intra-rank parallelism. Every Local
// method below has the same three steps: stage the call on each local
// kernel (the kernel appends its block operations to a program and
// computes nothing), flush — ONE dispatch of the rank's pool over the
// (kernel, pattern block) items of all staged kernels, each item running
// its kernel's whole program over one block — and fold the kernels'
// results in kernel-index order. A partition of one block is simply a
// one-item program; a rank without a pool runs the same items inline,
// each kernel's as soon as it is staged (staged).
// The fork-join worker runs the same methods, so both schemes get the
// same execution (docs/PERFORMANCE.md §6, docs/DETERMINISM.md §8).
type Local struct {
	// NPart is the number of global partitions.
	NPart int
	// NInner is the CLV slot count (taxa − 2).
	NInner int
	// Het is the rate-heterogeneity model.
	Het model.Heterogeneity
	// PerPartBranches mirrors the -M setting.
	PerPartBranches bool
	// Kernels are the local partition-share kernels.
	Kernels []*likelihood.Kernel
	// PartIdx maps local kernel index → global partition index.
	PartIdx []int
	// pool is the rank's intra-rank worker pool (§V hybrid scheme),
	// shared by all local kernels; nil when threads ≤ 1. The rank's
	// goroutine is its only dispatcher.
	pool *threadpool.Pool
	// rec is the rank's telemetry recorder; nil (the default) disables
	// all span timing at nil-check cost. Telemetry is out-of-band: it
	// never touches a value that feeds a likelihood.
	rec *telemetry.Recorder

	// Reusable result buffers for the per-call vector outputs below.
	// Each result is valid until the next call of the same method on
	// this Local — engines and searchers that need a result across
	// engine calls copy it into their own storage. This keeps the
	// steady-state optimization loops allocation-free
	// (docs/PERFORMANCE.md; asserted by alloc tests in both engines).
	evalScr, gradPPScr, insScr, classScr, srStatsScr []float64
	// siteRes is the PSR site-rate resolution ResolveSiteRates and
	// DecodeSiteRates fill, reused round to round.
	siteRes SiteRateResolution

	// items are the (kernel, block) pairs of the call in flight, in kernel
	// then block order; runItem and scanItem are the two closures ever
	// handed to the pool — a program block and a block of the rate scan —
	// built once so that a call allocates nothing. execute runs the staged
	// programs over the items: one dispatch of runItem, except in the test
	// that swaps in the op-major order as its oracle.
	items    []item
	runItem  func(worker, i int)
	scanItem func(worker, i int)
	execute  func()
	// work is the per-worker state of a dispatch, indexed by the pool's
	// worker index so that items need no synchronization.
	work []workerState
	// scans are the staged rate scans of an OptimizeSiteRatesLocal call,
	// by kernel index.
	scans []siteRateArgs

	// arena is where every local kernel's program builds its tables. One
	// per rank: a serial rank runs and finishes kernel i's program before
	// it stages kernel i+1's (staged), so a partition-rich rank's tables are
	// built in the same cache-resident memory again and again, as under the
	// two scratch buffers of the op-at-a-time kernels; a rank with a pool
	// finishes no kernel before flush has run them all, and the arena
	// grows to the whole call.
	arena likelihood.ProgramArena

	// counts are the rank's own per-rank counters: the flushes
	// (RankEngineCalls), the denominator the pool's dispatch and wake
	// counts are read against.
	counts telemetry.RankCounters
}

// item is one unit of a dispatch: pattern block blk of local kernel k.
type item struct{ k, blk int32 }

// workerState is what one pool worker keeps across the items of a call:
// the nanoseconds it spent per kernel class (filled only while a
// recorder is attached, folded into the recorder at the join) and the
// P(t·r) table of the rate scan with the kernel it is filled for. One
// cache line of counters per worker, so that two workers never write the
// same line.
type workerState struct {
	ns     [telemetry.NumKernelClasses]int64
	_      [8 - telemetry.NumKernelClasses]int64
	tab    likelihood.SiteRateTable
	tabFor int32
}

// scratchVec returns *buf resized to n and zeroed.
func scratchVec(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	v := (*buf)[:n]
	for i := range v {
		v[i] = 0
	}
	return v
}

// NewLocal materializes rank's shares and builds kernels from cfg:
// cfg.Subst decides the stationary frequencies (uniform for JC/K80,
// empirical otherwise); cfg.Threads > 1 starts the rank's shared-memory
// worker pool, which lives until Close; a non-nil cfg.Recorder makes
// every worker time the operations it runs by kernel class.
func NewLocal(d *msa.Dataset, a *distrib.Assignment, rank int, cfg Config) (*Local, error) {
	l := &Local{
		NPart:           d.NPartitions(),
		NInner:          d.NTaxa() - 2,
		Het:             cfg.Het,
		PerPartBranches: cfg.PerPartitionBranches,
		rec:             cfg.Recorder,
	}
	parts, partIdx := a.Materialize(d, rank)
	for i, pd := range parts {
		par, err := model.NewParams(cfg.Het, cfg.Subst.InitialFreqs(pd.Freqs), pd.NPatterns())
		if err != nil {
			return nil, err
		}
		k, err := likelihood.NewKernel(pd, par, l.NInner)
		if err != nil {
			return nil, err
		}
		k.ShareArena(&l.arena)
		l.Kernels = append(l.Kernels, k)
		l.PartIdx = append(l.PartIdx, partIdx[i])
	}
	if cfg.Threads > 1 {
		l.pool = threadpool.New(cfg.Threads)
	}
	l.work = make([]workerState, l.pool.Threads())
	l.scans = make([]siteRateArgs, len(l.Kernels))
	l.execute = func() { l.pool.Dispatch(len(l.items), l.runItem) }
	l.runItem = func(w, i int) {
		it := l.items[i]
		var ns *[telemetry.NumKernelClasses]int64
		if l.rec != nil {
			ns = &l.work[w].ns
		}
		l.Kernels[it.k].RunBlock(int(it.blk), ns)
	}
	l.scanItem = l.runScanItem
	return l, nil
}

// Threads reports the rank's intra-rank concurrency.
func (l *Local) Threads() int { return l.pool.Threads() }

// Close releases the rank's worker pool (no-op for serial ranks).
// Idempotent; the kernels must not be run afterwards.
func (l *Local) Close() { l.pool.Close() }

// Work reports the rank's engine's per-rank counters: its own, its
// pool's, the sum of its kernels' tables — their column counts, the cost
// model's compute volume, among them — and the lane width they ran at.
// Call it between engine calls.
func (l *Local) Work() telemetry.RankCounters {
	c := l.counts
	ps := l.pool.Stats()
	c[telemetry.RankPoolThreads] = int64(l.pool.Threads())
	c[telemetry.RankPoolDispatches] = ps.Dispatches
	c[telemetry.RankPoolBlocks] = ps.Items
	c[telemetry.RankPoolWakes] = ps.Wakes
	c[telemetry.RankPoolParks] = ps.Parks
	for _, k := range l.Kernels {
		c.Add(k.Counters())
	}
	c[telemetry.RankLaneWidth] = int64(likelihood.LaneWidth())
	return c
}

// BLClasses returns the linkage-class count.
func (l *Local) BLClasses() int {
	if l.PerPartBranches {
		return l.NPart
	}
	return 1
}

// ClassOf maps a global partition to its linkage class.
func (l *Local) ClassOf(part int) int {
	if l.PerPartBranches {
		return part
	}
	return 0
}

// flush executes what the local kernels have staged since start (a
// recorder token taken before staging began) as one dispatch over their
// (kernel, block) items, and joins: after it every kernel's results can
// be read. Kernels that staged nothing — masked partitions — contribute
// no item.
func (l *Local) flush(start int64) {
	l.items = l.items[:0]
	for ki, k := range l.Kernels {
		if k.Staged() > 0 {
			l.addItems(ki)
		}
	}
	l.execute()
	for _, k := range l.Kernels {
		k.Finish()
	}
	l.joined(start)
}

// addItems appends the blocks of local kernel ki to the call's items.
func (l *Local) addItems(ki int) {
	for b := 0; b < l.Kernels[ki].NBlocks(); b++ {
		l.items = append(l.items, item{int32(ki), int32(b)})
	}
}

// staged says that local kernel ki's part of the call in flight is
// staged. A rank with a pool waits for flush, which shares the whole call
// out in one dispatch. A rank without one has nobody to share it with and
// runs the kernel's program at once, while the tables staging built for
// it are still in cache: staging every kernel first would push a
// partition-rich rank's tables — a PSR tip table is 12.8 KB, a kernel of
// 100 patterns stages two per tree node — through the cache twice. The
// kernel is finished at once too, which resets the rank's arena: the next
// kernel builds its tables where this one's were.
func (l *Local) staged(ki int) {
	if l.pool != nil {
		return
	}
	l.items = l.items[:0]
	l.addItems(ki)
	l.execute()
	l.Kernels[ki].Finish()
}

// joined closes an engine call's books: the call is counted and, with a
// recorder attached, its wall time is split over the kernel classes in
// proportion to what the workers measured for each.
func (l *Local) joined(start int64) {
	l.counts[telemetry.RankEngineCalls]++
	if l.rec == nil {
		return
	}
	var ns [telemetry.NumKernelClasses]int64
	for w := range l.work {
		for k, v := range l.work[w].ns {
			ns[k] += v
		}
		l.work[w].ns = [telemetry.NumKernelClasses]int64{}
	}
	l.rec.EndEngineCall(start, &ns)
}

// Traverse executes the descriptor's schedules on the local kernels.
func (l *Local) Traverse(d *traversal.Descriptor) {
	t := l.rec.Begin()
	for i, k := range l.Kernels {
		k.Traverse(d.Steps[l.ClassOf(l.PartIdx[i])])
		l.staged(i)
	}
	l.flush(t)
}

// EvaluateLocal traverses and evaluates, returning the local
// per-partition log-likelihood vector (zeros for unowned partitions).
// A kernel whose partition the descriptor masks out (d.Active) is not
// touched at all — no traversal, no P-matrices, no tip tables — and its
// slot stays 0. The returned slice is reused by the next EvaluateLocal
// call.
func (l *Local) EvaluateLocal(d *traversal.Descriptor) []float64 {
	t := l.rec.Begin()
	for i, k := range l.Kernels {
		if d.Active != nil && !d.Active[l.PartIdx[i]] {
			continue
		}
		cls := l.ClassOf(l.PartIdx[i])
		k.Traverse(d.Steps[cls])
		k.Evaluate(d.P, d.Q, d.T[cls])
		l.staged(i)
	}
	l.flush(t)
	vec := scratchVec(&l.evalScr, l.NPart)
	for i, k := range l.Kernels {
		if d.Active != nil && !d.Active[l.PartIdx[i]] {
			continue
		}
		vec[l.PartIdx[i]] += k.LnL(0)
	}
	return vec
}

// AdmitDerivatives is the check a receiver of gradient plans it did not
// order (a fork-join worker) makes before evaluating one: every edge the
// plan evaluates without contracting it must be the edge its sum-table
// slot holds on every local kernel, contracted since the kernel's last
// Newview, InvalidateAll and parameter change
// (likelihood.Kernel.Contracted). A contracting plan evaluates only what
// it contracts; a Reuse plan contracts nothing and so may not stage the
// pre-order steps that would move every stamp. A kernel evaluates only
// the slots its class has active (GradPlan.Active), so only those are
// checked.
func (l *Local) AdmitDerivatives(plan *traversal.GradPlan) error {
	if !plan.Reuse {
		return nil
	}
	for _, pre := range plan.Pre {
		if len(pre) > 0 {
			return fmt.Errorf("enginecore: gradient plan reuses sum tables but carries %d pre-order steps", len(pre))
		}
	}
	nB := plan.NBranches()
	for i, k := range l.Kernels {
		off := l.ClassOf(l.PartIdx[i]) * nB
		for b, e := range plan.Edges {
			if plan.Active != nil && !plan.Active[off+b] {
				continue
			}
			if p, q, ok := k.Contracted(b); !ok || p != e.P || q != e.Q {
				return fmt.Errorf("enginecore: partition %d holds no current sum table of edge %d to evaluate derivatives from", l.PartIdx[i], b)
			}
		}
	}
	return nil
}

// ByClass folds a per-partition derivative vector of nB edges, local or
// reduced, packed [d1[p·nB+b]..., d2[P·nB + p·nB+b]...] as
// AllBranchDerivativesPerPartition returns it, into linkage classes,
// packed [d1[c·nB+b]..., d2[C·nB + c·nB+b]...]: each class sum starts at
// +0 and adds its partitions in partition order. A rank's kernels are in
// partition order, one per partition (distrib), so folding a local
// vector adds the kernels' results in kernel order, and the zero of an
// unowned partition adds nothing (docs/DETERMINISM.md §1). The returned
// slice is reused by the next call.
func (l *Local) ByClass(vec []float64, nB int) []float64 {
	classes := l.BLClasses()
	out := scratchVec(&l.classScr, 2*classes*nB)
	d2, c2 := vec[l.NPart*nB:], out[classes*nB:]
	for p := 0; p < l.NPart; p++ {
		c := l.ClassOf(p)
		for b := 0; b < nB; b++ {
			out[c*nB+b] += vec[p*nB+b]
			c2[c*nB+b] += d2[p*nB+b]
		}
	}
	return out
}

// gradient stages the plan on every local kernel — the pre-order pass,
// then per edge its class has active the contraction of its sum table
// into slot b, unless the plan reuses the tables, and the derivatives
// from there — and flushes. A kernel's results are then numbered over
// those edges in edge order.
func (l *Local) gradient(plan *traversal.GradPlan) {
	t := l.rec.Begin()
	nB := plan.NBranches()
	for i, k := range l.Kernels {
		cls := l.ClassOf(l.PartIdx[i])
		k.Traverse(plan.Pre[cls])
		for b, e := range plan.Edges {
			if plan.Active != nil && !plan.Active[cls*nB+b] {
				continue
			}
			if !plan.Reuse {
				k.Contract(b, e.P, e.Q)
			}
			k.Derivatives(b, plan.T[cls][b])
		}
		l.staged(i)
	}
	l.flush(t)
}

// foldGradient adds local kernel i's derivatives of the edges its class
// has active to d1[b] and d2[b]; a skipped slot keeps its zero.
func (l *Local) foldGradient(i int, plan *traversal.GradPlan, d1, d2 []float64) {
	r := 0
	off := l.ClassOf(l.PartIdx[i]) * plan.NBranches()
	for b := range plan.Edges {
		if plan.Active != nil && !plan.Active[off+b] {
			continue
		}
		a, c := l.Kernels[i].Gradient(r)
		d1[b] += a
		d2[b] += c
		r++
	}
}

// AllBranchDerivativesPerPartition executes the plan's pre-order
// schedule and the derivatives of every edge on every local kernel,
// returning the local per-partition all-branch derivative sums packed as
// [d1[p·nB+b]..., d2[P·nB + p·nB+b]...] with b indexing plan edges — the
// fork-join wire format, folded into linkage classes by ByClass: the
// local half of every branch-length Newton iteration, a whole sweep's
// or one branch's (docs/PERFORMANCE.md). The returned slice is reused by
// the next call.
func (l *Local) AllBranchDerivativesPerPartition(plan *traversal.GradPlan) []float64 {
	nB := plan.NBranches()
	l.gradient(plan)
	vec := scratchVec(&l.gradPPScr, 2*l.NPart*nB)
	for i := range l.Kernels {
		p := l.PartIdx[i]
		l.foldGradient(i, plan, vec[p*nB:], vec[l.NPart*nB+p*nB:])
	}
	return vec
}

// ScoreInsertionsLocal executes the insertion plan on every local kernel
// and returns the local log likelihood of every candidate insertion per
// partition, candidate-major: candidate i's partition p is at
// [i·NPart+p] (zeros for unowned partitions). One call replaces one
// EvaluateLocal per candidate (docs/PERFORMANCE.md §8). Per kernel the
// program is the post-order pass, the subtree's insertion table once,
// then one operation per candidate (likelihood.ScoreInsertion): its
// pre-order step — the vector at the candidate's near end — fused into the
// score of the vertex inserting the subtree there would create. The
// returned slice is reused by the next call.
func (l *Local) ScoreInsertionsLocal(plan *traversal.InsertPlan) []float64 {
	t := l.rec.Begin()
	for i, k := range l.Kernels {
		cls := l.ClassOf(l.PartIdx[i])
		k.Traverse(plan.Post[cls])
		k.PrepareInsertion(plan.Sub, plan.SubT[cls])
		for c, step := range plan.Pre[cls] {
			k.ScoreInsertion(step, plan.Far[c], plan.Half[cls][c])
		}
		l.staged(i)
	}
	l.flush(t)
	nC := plan.NCandidates()
	vec := scratchVec(&l.insScr, nC*l.NPart)
	for i, k := range l.Kernels {
		p := l.PartIdx[i]
		for c := 0; c < nC; c++ {
			vec[c*l.NPart+p] += k.LnL(c)
		}
	}
	return vec
}

// SetSharedLocal applies the per-partition (α + GTR) matrix to the local
// kernels.
func (l *Local) SetSharedLocal(params [][]float64) error {
	for i, k := range l.Kernels {
		if err := k.Params().DecodeShared(params[l.PartIdx[i]]); err != nil {
			return err
		}
	}
	return nil
}

// SiteRateCells is the flattened length of the per-partition cell
// statistics vector exchanged during PSR rate optimization.
func SiteRateCells(nPart int) int { return 2 * model.MaxPSRCategories * nPart }

// OptimizeSiteRatesLocal re-estimates every local pattern's rate by the
// grid scan below and returns the local cell-statistics vector (2·cells
// doubles per partition: rate·weight sums then weight sums). Sites are
// independent and nothing is reduced, so the pattern blocks of all
// kernels go to the pool as they are: same rates at every thread count.
func (l *Local) OptimizeSiteRatesLocal(d *traversal.Descriptor) []float64 {
	const cells = model.MaxPSRCategories
	t := l.rec.Begin()
	l.items = l.items[:0]
	for ki, k := range l.Kernels {
		l.scans[ki] = newSiteRateArgs(k, d, l.ClassOf(l.PartIdx[ki]))
		l.addItems(ki)
	}
	for w := range l.work {
		l.work[w].tabFor = -1
	}
	l.pool.Dispatch(len(l.items), l.scanItem)
	l.joined(t)
	stats := scratchVec(&l.srStatsScr, SiteRateCells(l.NPart))
	for i, k := range l.Kernels {
		base := 2 * cells * l.PartIdx[i]
		model.AccumulateRateCells(k.Params().SiteRates, k.Data().Weights, stats[base:base+cells], stats[base+cells:base+2*cells])
	}
	return stats
}

// runScanItem scans one pattern block of one kernel's rates on pool
// worker w. The P(t·r) table belongs to the worker: it fills it when it
// comes to a kernel it was not filled for, so a rank holds at most one
// table per thread whatever its partition count, a kernel's table is
// filled by whichever workers scan it — each its own copy, the same bits
// — and the fill is part of the dispatch rather than serial work before
// it.
func (l *Local) runScanItem(w, i int) {
	it := l.items[i]
	ws := &l.work[w]
	var t0 time.Time
	if l.rec != nil {
		t0 = time.Now()
	}
	a := l.scans[it.k]
	if ws.tabFor != it.k {
		a.fill(&ws.tab)
		ws.tabFor = it.k
	}
	a.tab = &ws.tab
	lo, hi := threadpool.BlockBounds(int(it.blk), a.k.NPatterns())
	a.optimize(lo, hi)
	if l.rec != nil {
		ws.ns[telemetry.KernelSiteRates] += int64(time.Since(t0))
	}
}

// The rate scan. A site's rate is searched on model.SiteRateGrid, the one
// list of candidate rates all sites share, so that P(t·r) is built once
// per (edge, grid rate) and kernel — the table — and a candidate costs a
// site one pruning recursion over table reads.
//
// Per site, inside the window [cur/8, cur·8]: every fourth grid rate and
// the window's last (at most 11 rates), then the two rates two steps
// either side of the best so far, then the two rates one step either
// side of the best so far. The proposed rate is the vertex of the
// parabola through the best grid point and its two neighbours in log
// rate, which lies within half a step of the best point (at an end of
// the window: that end). The interpolation costs nothing and is what
// makes the proposal a continuous function of the site's likelihood
// curve: branch lengths that differ in the last bit (as they do between
// rank counts) move it by a last bit too, where an arg-max over grid
// points would now and then jump a whole step. The proposal — or the
// grid point it refines, if that is better — replaces the current rate
// iff its exact likelihood is no lower.

// siteRateArgs are the operands of one kernel's rate scan: the full-tree
// schedule, the evaluation edge, the grid rates some site's window holds
// and — once a worker has filled one for them — the table.
type siteRateArgs struct {
	k        *likelihood.Kernel
	tab      *likelihood.SiteRateTable
	steps    []likelihood.Step
	p, q     likelihood.Ref
	rootT    float64
	gLo, gHi int
}

// newSiteRateArgs returns the operands of kernel k's scan along linkage
// class cls of d; the table is still to be filled.
func newSiteRateArgs(k *likelihood.Kernel, d *traversal.Descriptor, cls int) siteRateArgs {
	gLo, gHi := model.SiteRateGridSize, -1
	for _, cur := range k.Params().SiteRates {
		_, _, lo, hi := siteRateWindow(cur)
		gLo, gHi = min(gLo, lo), max(gHi, hi)
	}
	return siteRateArgs{k: k, steps: d.Steps[cls], p: d.P, q: d.Q, rootT: d.T[cls], gLo: gLo, gHi: gHi}
}

// fill fills tab for the scan, at the grid rates some site's window
// holds.
func (a siteRateArgs) fill(tab *likelihood.SiteRateTable) {
	a.k.FillSiteRateTable(tab, a.steps, a.rootT, a.gLo, a.gHi)
}

// siteRateWindow returns the rates a site at rate cur is searched over —
// [cur/8, cur·8], clipped to the rate bounds — and the index range of
// the grid rates inside.
func siteRateWindow(cur float64) (rLo, rHi float64, gLo, gHi int) {
	rLo = math.Max(model.MinSiteRate, cur/8)
	rHi = math.Min(model.MaxSiteRate, cur*8)
	if rHi <= rLo {
		rHi = model.MaxSiteRate
	}
	gLo, gHi = model.SiteRateGridWindow(rLo, rHi)
	return rLo, rHi, gLo, gHi
}

// optimize re-estimates the rates of local patterns [lo, hi).
func (a siteRateArgs) optimize(lo, hi int) {
	rates := a.k.Params().SiteRates
	for i := lo; i < hi; i++ {
		cur := rates[i]
		x, grid, gridV, ok := a.scan(i, cur)
		if !ok {
			continue
		}
		// The refined rate, unless the grid rate it refines is better:
		// that one's exact likelihood is its table value.
		lx := a.exact(i, x)
		if gridV > lx {
			x, lx = grid, gridV
		}
		if lx >= a.exact(i, cur) {
			rates[i] = x
		}
	}
}

// exact is site i's log likelihood at an arbitrary rate.
func (a siteRateArgs) exact(i int, rate float64) float64 {
	return a.k.EvaluateSiteAtRate(a.steps, a.p, a.q, a.rootT, i, rate)
}

// siteScan is one site's view of the grid: the values read so far and
// the best of them.
type siteScan struct {
	a     siteRateArgs
	site  int
	seen  [model.SiteRateGridSize]bool
	val   [model.SiteRateGridSize]float64
	best  int
	bestV float64
}

// at returns the site's log likelihood at grid rate g, reading the table
// the first time it is asked, and keeps the running best (the first seen
// of equals).
func (s *siteScan) at(g int) float64 {
	if !s.seen[g] {
		v := s.a.k.EvaluateSiteFromTable(s.a.tab, g, s.a.steps, s.a.p, s.a.q, s.site)
		s.seen[g], s.val[g] = true, v
		if v > s.bestV {
			s.best, s.bestV = g, v
		}
	}
	return s.val[g]
}

// scan searches the grid rates of the window of site i, now at rate cur,
// and returns the best of them with its log likelihood, and the rate it
// refines to: off the window's ends the vertex of the parabola through
// the best point and its neighbours, at the first or last grid rate of
// the window the window's own end, which lies up to a grid step beyond
// and is where a site whose curve is still rising that way (an invariant
// site walking down to MinSiteRate) was going. False when the site's
// likelihood is finite at no grid rate of the window.
func (a siteRateArgs) scan(i int, cur float64) (x, grid, gridV float64, ok bool) {
	rLo, rHi, gLo, gHi := siteRateWindow(cur)
	s := siteScan{a: a, site: i, best: -1, bestV: math.Inf(-1)}
	for g := gLo; g < gHi; g += 4 {
		s.at(g)
	}
	if gHi >= gLo {
		s.at(gHi) // a saturated site's curve can rise again towards the top rate
	}
	if s.best < 0 {
		return 0, 0, 0, false
	}
	for _, step := range [2]int{2, 1} {
		b := s.best
		if b-step >= gLo {
			s.at(b - step)
		}
		if b+step <= gHi {
			s.at(b + step)
		}
	}
	b := s.best
	grid, gridV = model.SiteRateGrid[b], s.bestV
	x = grid
	switch {
	case b > gLo && b < gHi:
		// Vertex of the parabola through (−1, lm), (0, gridV), (1, lp)
		// in units of the grid step; gridV is the largest of the three,
		// so a concave triple puts it within half a step.
		lm, lp := s.at(b-1), s.at(b+1)
		if den := lm - 2*gridV + lp; den < 0 && !math.IsInf(den, -1) {
			x *= math.Exp(0.5 * (lm - lp) / den * model.SiteRateGridStep)
		}
	case b == gLo && b < gHi:
		x = rLo
	case b == gHi && b > gLo:
		x = rHi
	}
	return x, grid, gridV, true
}

// SiteRateResolution is the globally agreed outcome of a PSR optimization
// round, derived purely from the summed cell statistics (so every rank —
// or the master — computes the identical resolution).
type SiteRateResolution struct {
	// CatRates[p] are partition p's category rates (pre-normalization).
	CatRates [][]float64
	// CellToCat[p] maps grid cells to category indices.
	CellToCat [][]int
	// Scale[c] is the branch-length scale factor of linkage class c that
	// compensates dividing the class's site rates by the same factor.
	Scale []float64
}

// ResolveSiteRates turns globally summed cell statistics into the shared
// resolution.
func ResolveSiteRates(stats []float64, nPart int, perPart bool) *SiteRateResolution {
	res := new(SiteRateResolution)
	res.Resolve(stats, nPart, perPart)
	return res
}

// ResolveSiteRates is the package's ResolveSiteRates for this rank's
// partitions into the Local's own resolution, valid until its next
// ResolveSiteRates or DecodeSiteRates.
func (l *Local) ResolveSiteRates(stats []float64) *SiteRateResolution {
	l.siteRes.Resolve(stats, l.NPart, l.PerPartBranches)
	return &l.siteRes
}

// Resolve makes r the resolution of the summed cell statistics, reusing
// its storage.
func (r *SiteRateResolution) Resolve(stats []float64, nPart int, perPart bool) {
	const cells = model.MaxPSRCategories
	classes := 1
	if perPart {
		classes = nPart
	}
	r.size(nPart, classes)
	clear(r.Scale)
	var globalR, globalW float64
	for p := 0; p < nPart; p++ {
		base := 2 * cells * p
		sumR := stats[base : base+cells]
		sumW := stats[base+cells : base+2*cells]
		r.CatRates[p], r.CellToCat[p] = model.AppendRateCategories(r.CatRates[p], r.CellToCat[p], sumR, sumW)
		var pr, pw float64
		for c := 0; c < cells; c++ {
			pr += sumR[c]
			pw += sumW[c]
		}
		globalR += pr
		globalW += pw
		if perPart && pw > 0 {
			r.Scale[p] = pr / pw
		}
	}
	if !perPart {
		if globalW > 0 && globalR > 0 {
			r.Scale[0] = globalR / globalW
		}
	}
	for c := range r.Scale {
		if !(r.Scale[c] > 0) {
			r.Scale[c] = 1
		}
	}
}

// size gives r nPart partitions' rows and classes scale factors, reusing
// its storage.
func (r *SiteRateResolution) size(nPart, classes int) {
	if cap(r.CatRates) < nPart {
		r.CatRates = make([][]float64, nPart)
		r.CellToCat = make([][]int, nPart)
	}
	r.CatRates, r.CellToCat = r.CatRates[:nPart], r.CellToCat[:nPart]
	if cap(r.Scale) < classes {
		r.Scale = make([]float64, classes)
	}
	r.Scale = r.Scale[:classes]
}

// Encode flattens the resolution for broadcast: per partition a category
// count, the category rates, the cell map (as floats), then the scale
// vector.
func (r *SiteRateResolution) Encode() []float64 { return r.Append(nil) }

// Append appends the resolution's encoding (Encode) to out.
func (r *SiteRateResolution) Append(out []float64) []float64 {
	for p := range r.CatRates {
		out = append(out, float64(len(r.CatRates[p])))
		out = append(out, r.CatRates[p]...)
		for _, c := range r.CellToCat[p] {
			out = append(out, float64(c))
		}
	}
	return append(out, r.Scale...)
}

// DecodeSiteRateResolution reverses Encode into a new resolution.
func DecodeSiteRateResolution(v []float64, nPart int, perPart bool) (*SiteRateResolution, error) {
	res := new(SiteRateResolution)
	if err := res.Decode(v, nPart, perPart); err != nil {
		return nil, err
	}
	return res, nil
}

// DecodeSiteRates is DecodeSiteRateResolution for this rank's partitions
// into the Local's own resolution, valid until its next ResolveSiteRates
// or DecodeSiteRates.
func (l *Local) DecodeSiteRates(v []float64) (*SiteRateResolution, error) {
	if err := l.siteRes.Decode(v, l.NPart, l.PerPartBranches); err != nil {
		return nil, err
	}
	return &l.siteRes, nil
}

// Decode reverses Encode into r, reusing its storage. The frame comes
// off the wire on a fork-join worker, so every read is bounded: a frame
// that is short, long, or whose category counts or cell indices fall
// outside what Encode can produce is an error, not an index panic.
func (r *SiteRateResolution) Decode(v []float64, nPart int, perPart bool) error {
	const cells = model.MaxPSRCategories
	classes := 1
	if perPart {
		classes = nPart
	}
	r.size(nPart, classes)
	pos := 0
	for p := 0; p < nPart; p++ {
		if pos >= len(v) {
			return fmt.Errorf("enginecore: site-rate resolution of %d values ends before partition %d of %d", len(v), p, nPart)
		}
		n, ok := wireInt(v[pos], 0, cells)
		pos++
		if !ok {
			return fmt.Errorf("enginecore: site-rate resolution claims %v categories for partition %d (a whole number, at most %d)", v[pos-1], p, cells)
		}
		if need := pos + n + cells; need > len(v) {
			return fmt.Errorf("enginecore: site-rate resolution of %d values, partition %d needs %d", len(v), p, need)
		}
		r.CatRates[p] = append(r.CatRates[p][:0], v[pos:pos+n]...)
		for c, rate := range r.CatRates[p] {
			if !wirePositive(rate) {
				return fmt.Errorf("enginecore: site-rate resolution gives category %d of partition %d the rate %v", c, p, rate)
			}
		}
		pos += n
		if cap(r.CellToCat[p]) < cells {
			r.CellToCat[p] = make([]int, cells)
		}
		r.CellToCat[p] = r.CellToCat[p][:cells]
		for c := 0; c < cells; c++ {
			cat, ok := wireInt(v[pos], -1, n-1)
			if !ok {
				return fmt.Errorf("enginecore: site-rate resolution maps a cell of partition %d to category %v of %d", p, v[pos], n)
			}
			r.CellToCat[p][c] = cat
			pos++
		}
	}
	if len(v) != pos+classes {
		return fmt.Errorf("enginecore: site-rate resolution of %d values, expected %d", len(v), pos+classes)
	}
	copy(r.Scale, v[pos:])
	for c, f := range r.Scale {
		if !wirePositive(f) {
			return fmt.Errorf("enginecore: site-rate resolution scales linkage class %d by %v", c, f)
		}
	}
	return nil
}

// wireInt converts a float off the wire that must hold a whole number in
// [lo, hi] exactly as Encode writes one; anything else — a fraction, a
// NaN, an infinity, a negative zero — is refused before the conversion,
// whose result for such values differs between platforms.
func wireInt(v float64, lo, hi int) (int, bool) {
	if !(v >= float64(lo) && v <= float64(hi)) {
		return 0, false
	}
	n := int(v)
	return n, math.Float64bits(float64(n)) == math.Float64bits(v)
}

// wirePositive reports whether a rate or scale off the wire is finite
// and positive.
func wirePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// ApplySiteRates installs the resolution into the local kernels.
func (l *Local) ApplySiteRates(res *SiteRateResolution) {
	const cells = model.MaxPSRCategories
	for i, k := range l.Kernels {
		p := l.PartIdx[i]
		f := res.Scale[l.ClassOf(p)]
		par := k.Params()
		// Assignment uses the pre-normalization rates the cells were
		// accumulated on (the current kernel rates).
		par.SiteCats = model.AssignRateCategoriesInto(par.SiteCats, par.SiteRates, res.CellToCat[p], cells)
		for j := range par.SiteRates {
			par.SiteRates[j] /= f
		}
		par.CatRates = par.CatRates[:0]
		for _, r := range res.CatRates[p] {
			par.CatRates = append(par.CatRates, r/f)
		}
		// Category rates changed without a Rebuild: advance the parameter
		// generation so the kernel's P-matrix cache self-invalidates.
		par.BumpGeneration()
		k.InvalidateAll()
	}
}
