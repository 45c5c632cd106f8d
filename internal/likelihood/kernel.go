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
// tips, CLV slots and outer vectors (Ref), the same contract a fork-join
// worker gets from a traversal descriptor.
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
	"repro/internal/telemetry"
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

// Operands, and pre-order ("outward") conditional vectors
// (docs/PERFORMANCE.md §5).
//
// A kernel operation names its operands and its destination in one
// address space (Ref): a tip, a post-order CLV slot or a pre-order outer
// vector. One Newview writes either kind of slot, one Traverse executes
// either kind of schedule and one Evaluate reads any pair of operands.
//
// The post-order CLV at an inner vertex summarizes the subtree *below*
// it. The pre-order outer vector at a node summarizes everything on the
// *other* side of its parent edge — the rest of the tree as seen from
// the node, looking up. With both in hand the derivative of the log
// likelihood w.r.t. ANY branch is one sum table contracted from the
// branch's post-order CLV and its outer vector (sumtable.go), without
// re-rooting a traversal per branch. One post-order pass plus one
// pre-order pass therefore makes every branch's (d1, d2) available —
// O(1) traversals instead of O(branches).
//
// Bit-identity with re-rooting holds by construction: the pre-order
// combine is the post-order Newview combine itself (same block workers,
// same operand order), so an edge's outer vector holds the bytes the CLV
// a traversal re-rooted at the edge would compute, and its sum table is
// contracted by the same Contract from the same bytes (asserted by the
// gradient identity tests here and, per call of a whole search, by
// internal/search's twin engine).

// RefKind selects which of a kernel's buffers a Ref addresses.
type RefKind uint8

const (
	// Inner addresses a post-order CLV slot (an inner vertex's slot).
	Inner RefKind = iota
	// Tip addresses a taxon's row of tip states.
	Tip
	// Outer addresses a pre-order outer-vector slot, indexed by the vertex
	// the vector looks down on: the conditional vector at the vertex's
	// parent, oriented toward the vertex.
	Outer
)

// Ref names an operand or a destination of a kernel operation: a tip, a
// post-order CLV slot or a pre-order outer vector — one address space for
// every schedule a kernel executes. Inner and Tip are the traversal
// descriptor's tip byte (0 a CLV slot, 1 a tip), and the PSR site
// recursion's assembly reads Kind as that flag (lanes_psr_amd64.s).
type Ref struct {
	Kind RefKind
	Idx  int32
}

// TipAt, InnerAt and OuterAt are the Ref constructors.
func TipAt(taxon int) Ref    { return Ref{Kind: Tip, Idx: int32(taxon)} }
func InnerAt(slot int) Ref   { return Ref{Kind: Inner, Idx: int32(slot)} }
func OuterAt(vertex int) Ref { return Ref{Kind: Outer, Idx: int32(vertex)} }

const ns = msa.NumStates

// Kernel holds per-partition-slice likelihood state.
type Kernel struct {
	data *msa.PartitionData
	par  *model.Params
	// psr is set when the kernel runs the PSR model, clear under Γ: a
	// kernel's rate model never changes, so NewKernel sets it once.
	psr bool

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

	// outer[vertex] / outerScale[vertex] are the pre-order outer vectors,
	// same layout as clv. Grown lazily by slot; nil until first computed.
	outer      [][]float64
	outerScale [][]int32

	// tipVec[state][x] is the 0/1 tip likelihood lookup.
	tipVec [16][ns]float64
	// tipMasks[taxon] are the state masks of the taxon's row of this
	// slice (rowMasks). NewKernel and InvalidateAll build them — the points
	// where the site categories change — not a parameter generation, which
	// moves on every model probe.
	tipMasks []rowMasks
	// catMasks is the storage of the PSR tip masks' catMask rows.
	catMasks []uint16

	// sums is the sum-table store (sumtable.go), addressed by slot: what
	// Contract fills and Derivatives reads, with the edge and the stamp
	// each table was contracted under. stamp moves with every staged
	// Newview and every InvalidateAll.
	sums  []sumSlot
	stamp uint64
	// insTab is the SPR insertion table (insertion.go): P(subT)·sub of the
	// pruned subtree PrepareInsertion was last called for, laid out like a
	// CLV; insSubScale are that subtree's scale counts (nil for a tip).
	insTab      []float64
	insSubScale []int32

	// pm is the P-matrix store (pstore.go).
	pm pStore
	// counts are the kernel's per-rank counters (Counters), out-of-band:
	// no computed value reads them.
	counts telemetry.RankCounters

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
}

// rowMasks describe which tip-table entries a tip's row can read. The
// tip lookup tables (fastpath.go) are only ever indexed by states of the
// operand's own row, so their fills skip every entry outside the masks.
type rowMasks struct {
	// mask has bit s set when the row contains state s.
	mask uint16
	// catMask[c] (PSR only) has bit s set when a site of category c holds
	// state s: the (category, code) pairs a PSR tip table is read at,
	// each site reading its own category's entries alone.
	catMask []uint16
}

// operand is a resolved kernel argument: tips (+ the row's masks) for a
// tip reference, clv (+scale) for a CLV or outer slot. Workers only read
// operands.
type operand struct {
	tips []msa.State
	rowMasks
	clv   []float64
	scale []int32
}

// operand resolves a Ref against the kernel's state. A referenced CLV or
// outer slot must already have been computed.
func (k *Kernel) operand(r Ref) operand {
	switch r.Kind {
	case Tip:
		return operand{tips: k.data.Tips[r.Idx], rowMasks: k.tipMasks[r.Idx]}
	case Inner:
		return operand{clv: k.clv[r.Idx], scale: k.scale[r.Idx]}
	}
	return operand{clv: k.outer[r.Idx], scale: k.outerScale[r.Idx]}
}

// buildTipMasks (re)builds tipMasks from the slice's rows and the current
// site categories; catMask stays nil under Γ, where every site reads
// every category.
func (k *Kernel) buildTipMasks() {
	cats := len(k.par.CatRates)
	if k.psr {
		n := len(k.data.Tips) * cats
		if cap(k.catMasks) < n {
			k.catMasks = make([]uint16, n)
		}
		k.catMasks = k.catMasks[:n]
		clear(k.catMasks)
	}
	if k.tipMasks == nil {
		k.tipMasks = make([]rowMasks, len(k.data.Tips))
	}
	for taxon, row := range k.data.Tips {
		m := &k.tipMasks[taxon]
		*m = rowMasks{}
		if k.psr {
			m.catMask = k.catMasks[taxon*cats:][:cats]
		}
		for i, s := range row {
			m.mask |= 1 << s
			if k.psr {
				m.catMask[k.par.SiteCats[i]] |= 1 << s
			}
		}
	}
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
		psr:    par.Het == model.PSR,
		nPat:   data.NPatterns(),
		nInner: nInner,
		clv:    make([][]float64, nInner),
		scale:  make([][]int32, nInner),
		mem:    new(ProgramArena),
		pm:     newPStore(2*nInner + 1),
		// An all-edge gradient program — a pre-order step, a contraction
		// and a derivative per edge — is about three operations per edge;
		// sized for it, the program rarely grows by doubling.
		prog: make([]runArgs, 0, 3*(2*nInner+1)),
	}
	k.siteScr = newSiteScratch(k.nPat, nInner)
	for s := msa.State(1); s <= 15; s++ {
		k.tipVec[s] = s.TipVector()
	}
	k.buildTipMasks()
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
	if k.psr {
		return k.nPat * ns
	}
	return k.nPat * gammaCats * ns
}

// cols is the column-update count of one pass over the patterns: every
// category of every pattern under Γ, each pattern's own category under
// PSR.
func (k *Kernel) cols() int64 {
	if k.psr {
		return int64(k.nPat)
	}
	return int64(k.nPat) * gammaCats
}

// slot returns (allocating on first use) the backing store of the CLV or
// outer slot r names. The outer table grows to fit: it is indexed by
// vertex, not by inner slot.
func (k *Kernel) slot(r Ref) ([]float64, []int32) {
	vecs, scales := k.clv, k.scale
	if r.Kind == Outer {
		for int(r.Idx) >= len(k.outer) {
			k.outer = append(k.outer, nil)
			k.outerScale = append(k.outerScale, nil)
		}
		vecs, scales = k.outer, k.outerScale
	}
	if vecs[r.Idx] == nil {
		vecs[r.Idx] = make([]float64, k.clvLen())
		scales[r.Idx] = make([]int32, k.nPat)
	}
	return vecs[r.Idx], scales[r.Idx]
}

// InvalidateAll marks every CLV and outer vector stale (used after model
// changes that the caller follows with a full traversal, and by
// fault-recovery redistribution): it moves the stamp, so no sum table
// counts as current, and keeps the buffers, which the next traversal
// overwrites. The P-matrix store is emptied too: InvalidateAll callers
// may mutate parameters (site rates) without a Rebuild. The site
// categories may have changed with them, so the tip masks are rebuilt.
func (k *Kernel) InvalidateAll() {
	k.stamp++
	k.pm.reset(k.pm.cats)
	k.buildTipMasks()
}

// probMatrices fills one P matrix per rate category for branch length t.
// Its setup cost (spectral recombination + exponentials) counts into the
// columns row in column-update equivalents, a quarter of a matrix's
// entries per category: it is paid once per partition per operation
// regardless of how few of its patterns the rank holds — the effect of
// the paper's reference [24]. A rank pays it only for the partitions it
// holds, which is why the distribution (internal/distrib) keeps
// partitions whole on a rank where it can.
//
// PSR matrices are stored transposed (Eigen.ProbMatrixT): the PSR workers
// read P column by column (lanes.go), so every PSR set — cached, lent,
// and the site-rate tables — is made that way once, where it is made.
func (k *Kernel) probMatrices(t float64, dst [][ns * ns]float64) {
	var set pSet
	set.start(k.par.Eigen, dst, k.psr)
	for _, r := range k.par.CatRates {
		set.add(t, r)
	}
	set.flush()
	k.counts[telemetry.RankColumns] += int64(len(k.par.CatRates) * ns * ns / 4)
}

// pSetBatch is how many P matrices share one expAll call.
const pSetBatch = 32

// pSet builds P matrices in batches, with Eigen.ProbMatrix's (or, when
// transpose, ProbMatrixT's) bits: add stages a matrix's three exponential
// arguments (model.Eigen.ExpArgs), and every pSetBatch matrices, and at
// flush, one expAll call takes the batch's exponentials — four wide, the
// argument list padded with zeros — and laneAssemble where the lanes run,
// else Eigen.Assemble, writes the matrices to dst in add order.
type pSet struct {
	e         *model.Eigen
	dst       [][ns * ns]float64
	transpose bool
	n         int
	arg       [3 * pSetBatch]float64
}

// start readies s, zero or flushed, to write to dst. A set is declared
// and then started rather than built as a composite literal, which Go
// builds in a temporary and copies, argument buffer and all.
func (s *pSet) start(e *model.Eigen, dst [][ns * ns]float64, transpose bool) {
	s.e, s.dst, s.transpose = e, dst, transpose
}

func (s *pSet) add(t, rate float64) {
	s.e.ExpArgs(t, rate, (*[3]float64)(s.arg[3*s.n:]))
	if s.n++; s.n == pSetBatch {
		s.flush()
	}
}

func (s *pSet) flush() {
	na := 3 * s.n
	for ; na%4 != 0; na++ {
		s.arg[na] = 0
	}
	expAll(s.arg[:na])
	if laneMask != 0 {
		u, stat := &s.e.U, &s.e.Stat
		if s.transpose {
			u, stat = &s.e.UT, &s.e.StatT
		}
		laneAssemble(s.dst[:s.n], s.arg[:3*s.n], u, &s.e.UInv, stat, s.transpose)
	} else {
		for i := 0; i < s.n; i++ {
			s.e.Assemble((*[3]float64)(s.arg[3*i:]), &s.dst[i], s.transpose)
		}
	}
	s.dst = s.dst[s.n:]
	s.n = 0
}
