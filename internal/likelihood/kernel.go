// Package likelihood implements the three computational kernels of
// likelihood-based phylogenetics on pattern-compressed data:
//
//   - Newview: conditional likelihood vectors (CLVs) at inner vertices via
//     the Felsenstein pruning recursion,
//   - Evaluate: the log likelihood at a virtual root placed on an edge,
//   - Derivatives: the first and second derivative of the log likelihood
//     with respect to one branch length (for Newton–Raphson optimization),
//     computed through the eigen-basis sum-table factorization.
//
// A Kernel instance owns the CLV arrays for one partition *slice* — the
// patterns a single rank holds of one partition — which is exactly the
// worker-side state of both parallelization schemes in the paper. The
// kernel is deliberately tree-agnostic: it executes numbered operations on
// CLV slots and tip indices, the same contract a fork-join worker gets
// from a traversal descriptor.
//
// Every kernel optionally splits its pattern range into fixed-size
// contiguous blocks executed by an intra-rank worker pool (SetPool) — the
// shared-memory axis of the paper's §V hybrid MPI/PThreads scheme.
// Threading never changes a single bit of any result: Newview and the
// sum-table fill write disjoint per-block ranges, and Evaluate/Derivatives
// combine per-block partial sums in block-index order after the join
// (docs/DETERMINISM.md documents the repo-wide contract).
package likelihood

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/msa"
	"repro/internal/threadpool"
)

// Numerical scaling constants (RAxML's minlikelihood convention): a CLV
// column whose entries all drop below ScaleThreshold is multiplied by
// ScaleFactor = 1/ScaleThreshold and the event is counted, contributing
// LogScaleStep to the site's log likelihood.
const scaleExp = 256

var (
	// ScaleThreshold is 2^-256.
	ScaleThreshold = math.Exp2(-scaleExp)
	// ScaleFactor is 2^+256.
	ScaleFactor = math.Exp2(scaleExp)
	// LogScaleStep is ln(2^-256), added once per scaling event.
	LogScaleStep = -float64(scaleExp) * math.Ln2
)

// NodeRef addresses a CLV operand: either a tip (taxon index into the
// partition's rows) or an inner CLV slot.
type NodeRef struct {
	// Tip selects tip addressing.
	Tip bool
	// Idx is the taxon index (Tip) or the inner CLV slot (otherwise).
	Idx int32
}

// TipRef and InnerRef are NodeRef constructors.
func TipRef(taxon int) NodeRef  { return NodeRef{Tip: true, Idx: int32(taxon)} }
func InnerRef(slot int) NodeRef { return NodeRef{Tip: false, Idx: int32(slot)} }

const ns = msa.NumStates

// Kernel holds per-partition-slice likelihood state.
type Kernel struct {
	data *msa.PartitionData
	par  *model.Params

	nPat   int
	nInner int

	// clv[slot] is nil until first computed. A CLV is stored plane-major
	// (structure of arrays): every (category, state) pair owns a contiguous
	// plane of nPat doubles, so the innermost kernel loops are stride-1
	// over patterns — the layout BEAGLE's CPU kernels use.
	//   Γ:   [category][state][pattern] → (c*4+x)*nPat+i, 16 planes
	//   PSR: [state][pattern]           → x*nPat+i (one category per site)
	clv [][]float64
	// scale[slot][pattern] counts scaling events accumulated in the
	// subtree the CLV summarizes.
	scale [][]int32

	// outer[vertex] / outerScale[vertex] are the pre-order outer vectors
	// (gradient.go): the conditional vector at the vertex's parent
	// oriented toward the vertex, same layout as clv. Grown lazily by
	// outerSlot; nil until first computed.
	outer      [][]float64
	outerScale [][]int32

	// tipVec[state][x] is the 0/1 tip likelihood lookup.
	tipVec [16][ns]float64
	// tipMask[taxon] has bit s set when the taxon's row of this slice
	// contains state s. The tip lookup tables (fastpath.go) are only ever
	// indexed by states of the operand's own row, so their fills skip
	// every code outside the mask.
	tipMask []uint16

	// sum table for Derivatives, pattern-major (consumed sequentially per
	// site): Γ: [pattern][category][eig]; PSR: [pattern][eig].
	sumTab []float64
	// prepared records whether sumTab matches the most recent
	// PrepareDerivatives call.
	prepared bool
	// gradTabs[b] is plan edge b's cached sum table from the batched
	// all-branch gradient (gradient.go): BranchGradientCached fills it,
	// BranchGradientReuse re-evaluates from it at new trial lengths —
	// the per-branch PrepareDerivatives/Derivatives amortization,
	// batched across every edge of a smoothing sweep.
	gradTabs [][]float64
	// insTab is the SPR insertion table (insertion.go): P(subT)·sub of the
	// pruned subtree PrepareInsertion was last called for, laid out like a
	// CLV; insSubScale are that subtree's scale counts (nil for a tip).
	insTab      []float64
	insSubScale []int32

	// pool is the rank's shared-memory worker pool (§V hybrid scheme);
	// nil runs every kernel serially over the same block structure.
	pool *threadpool.Pool
	// blockAcc is the fixed-size per-block partial-result slot array,
	// reused across calls (kernel calls within a rank are serial).
	blockAcc []blockPartial

	// Fast-path state (fastpath.go). fastOn enables the tip-specialized
	// kernels, pcOn the keyed P-matrix cache; both default to on and both
	// are bit-identical to the generic path.
	fastOn bool
	pcOn   bool
	// pcache maps Float64bits(branch length) → per-category P matrices,
	// valid for parameter generation pcGen only.
	pcache map[uint64][][ns * ns]float64
	pcGen  uint64
	// pmScr are the two cache-off P-matrix scratch buffers (Newview needs
	// two sets live at once); tipTabScr the two tip-table buffers;
	// prepTabP/Q the derivative-preparation tip tables.
	pmScr     [2][][ns * ns]float64
	tipTabScr [2][]float64
	// pairTabScr / pairScaleScr are the tip-tip pair-product table and
	// its per-pair scale counts (Γ newview).
	pairTabScr   []float64
	pairScaleScr [256]int32
	prepTabP     []float64
	prepTabQ     []float64
	fp           FastPathStats

	// exGScr/lamGScr (Γ) and exPScr/lamPScr (PSR) are the derivative
	// exponential tables — kernel fields so the staged run arguments
	// never point into a stack frame (which would force a per-call
	// heap allocation).
	exGScr, lamGScr [gammaCats][ns]float64
	exPScr, lamPScr [][ns]float64

	// ra stages the operands of the in-flight block operation and
	// blockFn is the single cached closure handed to the pool
	// (dispatch.go) — together they keep kernel calls allocation-free.
	ra      runArgs
	blockFn func(blk, lo, hi int)

	// siteScr are the per-pattern-block working sets of the single-site
	// evaluations (siterate.go: the PSR site-rate inner loop).
	siteScr []siteScratch

	flops FlopCount
}

// SetPool attaches the rank's worker pool, splitting every subsequent
// kernel invocation into contiguous pattern blocks executed by up to
// pool.Threads() goroutines. Block boundaries and reduction order are
// independent of the thread count, so results are byte-for-byte
// identical to the serial (nil-pool) kernel — the intra-rank half of the
// determinism contract in docs/DETERMINISM.md.
func (k *Kernel) SetPool(p *threadpool.Pool) { k.pool = p }

// Threads reports the kernel's intra-rank concurrency.
func (k *Kernel) Threads() int { return k.pool.Threads() }

// operand is a resolved kernel argument: tips (+ the row's state mask)
// for a tip reference, clv (+scale) for an inner CLV slot. Workers only
// read operands.
type operand struct {
	tips  []msa.State
	mask  uint16
	clv   []float64
	scale []int32
}

// operand resolves a NodeRef against the kernel's state.
func (k *Kernel) operand(r NodeRef) operand {
	if r.Tip {
		return operand{tips: k.data.Tips[r.Idx], mask: k.tipMask[r.Idx]}
	}
	return operand{clv: k.clv[r.Idx], scale: k.scale[r.Idx]}
}

// blockPartial is one pattern block's contribution to a kernel call.
// Each worker writes only its own block's slot; the caller combines the
// slots in block-index order after the join, which keeps every reduction
// bit-identical regardless of how blocks were scheduled onto threads.
// Each slot is padded to a full 64-byte cache line: adjacent blocks run
// on different threads, and without the padding two workers depositing
// into neighboring slots would ping-pong the shared line on every store
// (false sharing — measured in docs/PERFORMANCE.md §6).
type blockPartial struct {
	// lnL is an Evaluate block's partial log likelihood.
	lnL float64
	// d1, d2 are a Derivatives block's partial sums.
	d1, d2 float64
	// cols is the block's column-update count (summed into FlopCount at
	// the join — never touched concurrently).
	cols int64
	// rescaled counts the sites an insertion-score block rescaled.
	rescaled int64
	_        [3]int64
}

// blocks returns the per-block slot array sized for the kernel's pattern
// range.
func (k *Kernel) blocks() []blockPartial {
	if n := threadpool.NumBlocks(k.nPat); len(k.blockAcc) != n {
		k.blockAcc = make([]blockPartial, n)
	}
	return k.blockAcc
}

// joinCols sums the per-block column counts after a join — the race-free
// FlopCount accumulation path (workers count into their own slot; only
// the caller's goroutine touches the shared counter).
func joinCols(parts []blockPartial) int64 {
	var t int64
	for i := range parts {
		t += parts[i].cols
	}
	return t
}

// NewKernel builds a kernel for one partition slice. nInner is the number
// of inner-vertex CLV slots to provision (n-2 for an n-taxon tree).
func NewKernel(data *msa.PartitionData, par *model.Params, nInner int) (*Kernel, error) {
	if data.NPatterns() == 0 {
		return nil, fmt.Errorf("likelihood: empty partition slice %q", data.Name)
	}
	if err := par.Check(); err != nil {
		return nil, err
	}
	if par.Het == model.PSR && len(par.SiteRates) != data.NPatterns() {
		return nil, fmt.Errorf("likelihood: %d site rates for %d patterns", len(par.SiteRates), data.NPatterns())
	}
	k := &Kernel{
		data:   data,
		par:    par,
		nPat:   data.NPatterns(),
		nInner: nInner,
		clv:    make([][]float64, nInner),
		scale:  make([][]int32, nInner),
		fastOn: true,
		pcOn:   true,
	}
	k.siteScr = newSiteScratch(k.nPat, nInner)
	for s := msa.State(1); s <= 15; s++ {
		k.tipVec[s] = s.TipVector()
	}
	k.tipMask = make([]uint16, len(data.Tips))
	for taxon, row := range data.Tips {
		for _, s := range row {
			k.tipMask[taxon] |= 1 << s
		}
	}
	return k, nil
}

// Params returns the kernel's model parameters (shared, mutable: the
// caller re-runs traversals after changing them).
func (k *Kernel) Params() *model.Params { return k.par }

// Data returns the kernel's partition slice.
func (k *Kernel) Data() *msa.PartitionData { return k.data }

// NPatterns returns the number of local patterns.
func (k *Kernel) NPatterns() int { return k.nPat }

// WeightSum returns the summed pattern weights (local site count).
func (k *Kernel) WeightSum() int {
	t := 0
	for _, w := range k.data.Weights {
		t += w
	}
	return t
}

// clvLen returns the per-slot CLV length for the active model.
func (k *Kernel) clvLen() int {
	if k.par.Het == model.Gamma {
		return k.nPat * model.GammaCategories * ns
	}
	return k.nPat * ns
}

// slot returns (allocating on demand) the CLV backing store for an inner
// slot.
func (k *Kernel) slot(i int32) ([]float64, []int32) {
	if k.clv[i] == nil || len(k.clv[i]) != k.clvLen() {
		k.clv[i] = make([]float64, k.clvLen())
		k.scale[i] = make([]int32, k.nPat)
	}
	return k.clv[i], k.scale[i]
}

// InvalidateAll drops all CLVs (used after model changes that the caller
// follows with a full traversal, and by fault-recovery redistribution).
// The P-matrix cache is dropped too: InvalidateAll callers may mutate
// parameters (site rates) without a Rebuild.
func (k *Kernel) InvalidateAll() {
	for i := range k.clv {
		k.clv[i] = nil
		k.scale[i] = nil
	}
	k.InvalidateOuter()
	k.prepared = false
	k.pcache = nil
}

// probMatrices fills one P matrix per rate category for branch length t.
// The per-partition setup cost (spectral recombination + exponentials) is
// metered separately: it is paid once per partition per operation
// regardless of how few patterns the rank holds, which is why cyclic
// distribution of many partitions hurts and monolithic (MPS) assignment
// helps — the effect of the paper's reference [24].
func (k *Kernel) probMatrices(t float64, dst [][ns * ns]float64) {
	for c, r := range k.par.CatRates {
		k.par.Eigen.ProbMatrix(t, r, &dst[c])
	}
	k.flops.Setup += int64(len(k.par.CatRates) * ns * ns / 4)
}

// FlopCount is a rough per-call floating-point operation estimate
// maintained for the cluster cost model; incremented by the kernels.
type FlopCount struct {
	// Newview, Evaluate, Derivative count pattern×category column
	// updates executed by the respective kernel.
	Newview, Evaluate, Derivative int64
	// Setup counts P(t)-matrix construction work in column-update
	// equivalents — the per-partition fixed cost of every operation.
	Setup int64
}

// Total returns all counters summed.
func (f FlopCount) Total() int64 { return f.Newview + f.Evaluate + f.Derivative + f.Setup }

// Flops aggregates the kernel's column-update counters.
func (k *Kernel) Flops() FlopCount { return k.flops }
