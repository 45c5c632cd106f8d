// Package likelihood implements the three computational kernels of
// likelihood-based phylogenetics on pattern-compressed data:
//
//   - Newview: conditional likelihood vectors (CLVs) at inner vertices via
//     the Felsenstein pruning recursion,
//   - Evaluate: the log likelihood at a virtual root placed on an edge,
//   - Derivatives: the first and second derivative of the log likelihood
//     with respect to one branch length (for Newton–Raphson optimization),
//     evaluated from an edge's contracted sum table (sumtable.go).
//
// A Kernel instance owns the CLV arrays for one partition *slice* — the
// patterns a single rank holds of one partition — which is exactly the
// worker-side state of both parallelization schemes in the paper. The
// kernel is deliberately tree-agnostic: it executes numbered operations on
// CLV slots and tip indices, the same contract a fork-join worker gets
// from a traversal descriptor.
//
// Kernel calls stage block operations into a program (dispatch.go) that
// the engine executes over fixed-size contiguous pattern blocks, one
// (kernel, block) item of an intra-rank worker pool's dispatch each — the
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

	// sums is the sum-table store (sumtable.go), addressed by slot: what
	// Contract fills and Derivatives reads, with the edge and the stamp
	// each table was contracted under. stamp moves with every staged
	// Newview or NewviewOuter and every InvalidateAll.
	sums  []sumSlot
	stamp uint64
	// insTab is the SPR insertion table (insertion.go): P(subT)·sub of the
	// pruned subtree PrepareInsertion was last called for, laid out like a
	// CLV; insSubScale are that subtree's scale counts (nil for a tip).
	insTab      []float64
	insSubScale []int32

	// P-matrix cache and fast-path counters (fastpath.go).
	// pcache maps Float64bits(branch length) → per-category P matrices,
	// valid for parameter generation pcGen only. pmFree are idle matrix
	// sets — a cache reset puts its sets there, a miss takes one — and
	// pmLent the sets the program in flight borrowed for matrices the
	// cache did not keep.
	pcache map[uint64][][ns * ns]float64
	pcGen  uint64
	pmFree [][][ns * ns]float64
	pmLent [][][ns * ns]float64
	fp     FastPathStats

	// The program (dispatch.go): the staged block operations of the engine
	// call in flight, the per-block rows of partials its reducing
	// operations fill (redStride slots per block, nRed in use), the folded
	// results of the last finished program, and the arena its
	// per-operation tables come from (its own unless ShareArena gave it a
	// rank's).
	prog      []runArgs
	nRed      int
	redStride int
	parts     []blockPartial
	res       [][2]float64
	mem       *ProgramArena
	flushFn   func(worker, blk int)

	// siteScr are the per-pattern-block working sets of the single-site
	// evaluations (siterate.go: the PSR site-rate inner loop).
	siteScr []siteScratch

	flops FlopCount
}

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
		mem:    new(ProgramArena),
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

// clvLen returns the per-slot CLV length for the active model.
func (k *Kernel) clvLen() int {
	if k.par.Het == model.Gamma {
		return k.nPat * model.GammaCategories * ns
	}
	return k.nPat * ns
}

// cols is the column-update count of one pass over the patterns: every
// category of every pattern under Γ, each pattern's own category under
// PSR.
func (k *Kernel) cols() int64 {
	if k.par.Het == model.Gamma {
		return int64(k.nPat) * model.GammaCategories
	}
	return int64(k.nPat)
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
	k.stamp++
	k.dropPCache()
}

// probMatrices fills one P matrix per rate category for branch length t.
// The per-partition setup cost (spectral recombination + exponentials) is
// metered separately: it is paid once per partition per operation
// regardless of how few patterns the rank holds, which is why cyclic
// distribution of many partitions hurts and monolithic (MPS) assignment
// helps — the effect of the paper's reference [24].
//
// PSR matrices are stored transposed (Eigen.ProbMatrixT): the PSR workers
// read P column by column (lanes.go), so every PSR set — cached, lent,
// and the site-rate tables — is made that way once, where it is made.
func (k *Kernel) probMatrices(t float64, dst [][ns * ns]float64) {
	e, psr := k.par.Eigen, k.par.Het == model.PSR
	for c, r := range k.par.CatRates {
		if psr {
			e.ProbMatrixT(t, r, &dst[c])
		} else {
			e.ProbMatrix(t, r, &dst[c])
		}
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
