package likelihood

import (
	"math"

	"repro/internal/model"
	"repro/internal/msa"
	"repro/internal/threadpool"
)

// Now is a kernel driven one call at a time, the way the tests that check
// a single operation's value read best: every call stages its operations
// as a program of its own, flushes it on Pool (nil: serially) and returns
// the value.
type Now struct {
	*Kernel
	Pool *threadpool.Pool
}

func (n Now) Newview(s Step) {
	n.Kernel.Newview(s)
	n.Flush(n.Pool)
}

func (n Now) Traverse(steps []Step) {
	n.Kernel.Traverse(steps)
	n.Flush(n.Pool)
}

func (n Now) Evaluate(p, q Ref, t float64) float64 {
	n.Kernel.Evaluate(p, q, t)
	n.Flush(n.Pool)
	return n.LnL(0)
}

func (n Now) Contract(s int, p, q Ref) {
	n.Kernel.Contract(s, p, q)
	n.Flush(n.Pool)
}

func (n Now) Derivatives(s int, t float64) (d1, d2 float64) {
	n.Kernel.Derivatives(s, t)
	n.Flush(n.Pool)
	return n.Gradient(0)
}

func (n Now) PrepareInsertion(sub Ref, t float64) {
	n.Kernel.PrepareInsertion(sub, t)
	n.Flush(n.Pool)
}

func (n Now) ScoreInsertion(s Step, far Ref, half float64) float64 {
	n.Kernel.ScoreInsertion(s, far, half)
	n.Flush(n.Pool)
	return n.LnL(0)
}

// FlushOpMajor executes the staged program the other way round — every
// block of the first operation, then every block of the second, … — on
// the calling goroutine, and joins it: the order the kernels ran in
// before a program was the unit of execution, kept as the oracle the
// block-major flush is compared with.
func (k *Kernel) FlushOpMajor() {
	for op := 0; op < k.Staged(); op++ {
		for blk := 0; blk < k.NBlocks(); blk++ {
			k.RunOp(op, blk)
		}
	}
	k.Finish()
}

// PoisonTipTables overwrites the whole arena the tip lookup tables are
// taken from — tip tables and prep tables — with NaN, after making sure it
// is large enough for any one call's tables. The next fill repairs only
// the entries its masks cover, so a kernel that reads any other entry
// produces a visibly wrong result. Call it between programs.
func (k *Kernel) PoisonTipTables() {
	k.mem.tabs.take(2 * len(k.par.CatRates) * 16 * ns)
	k.mem.tabs.reset()
	tabs := k.mem.tabs.chunk[:cap(k.mem.tabs.chunk)]
	for i := range tabs {
		tabs[i] = math.NaN()
	}
}

// TipTable fills taxon's tip table for branch length t the way a kernel
// call would, from the arena as it is (PoisonTipTables first to see what
// the fill leaves alone), and returns a copy of it.
func (k *Kernel) TipTable(taxon int, t float64) []float64 {
	tab := append([]float64(nil), k.tipTable(k.probMatricesFor(t), k.operand(TipAt(taxon)))...)
	k.mem.reset()
	return tab
}

// LoadTipAsInner writes taxon's tip into inner slot: every category
// plane holds, at each site, the entry of the 0/1 vector of the site's
// state, and every scale count is 0. An operand naming the slot instead
// of the tip runs through the inner-inner workers — the expressions the
// tip tables are filled with — so it is the reference of the tip
// workers.
func (k *Kernel) LoadTipAsInner(slot, taxon int) {
	clv, scale := k.slot(InnerAt(slot))
	for p := 0; p < len(clv)/k.nPat; p++ {
		plane := clv[p*k.nPat:][:k.nPat]
		for i, s := range k.data.Tips[taxon] {
			plane[i] = k.tipVec[s][p%ns]
		}
	}
	clear(scale)
}

// LaneWidths returns the widths of the Γ site lanes this CPU runs, 0 (the
// Go loops) first: some of 0, 4 and 8 (lanes.go).
func LaneWidths() []int {
	w := []int{0}
	if haveLanes {
		w = append(w, 4)
	}
	if haveLanes8 {
		w = append(w, 8)
	}
	return w
}

// SetLanes sets the lanes to the widest of 8, 4 and 0 that is at most
// width and that the CPU runs, and returns the width they had. Call it
// between programs.
func SetLanes(width int) (was int) {
	was = laneWidth
	laneWidth, laneMask = lanesFor(width)
	return was
}

// Cap returns the number of table doubles the arena holds.
func (a *ProgramArena) Cap() int { return cap(a.tabs.chunk) }

// TipMask returns the state mask of a taxon's row of the kernel's slice.
func (k *Kernel) TipMask(taxon int) uint16 { return k.tipMasks[taxon].mask }

// Vector returns copies of the entries and scale counts of the CLV or
// outer vector r.
func (k *Kernel) Vector(r Ref) ([]float64, []int32) {
	o := k.operand(r)
	return append([]float64(nil), o.clv...), append([]int32(nil), o.scale...)
}

// PoisonVector sets every entry of the CLV or outer vector r to NaN and
// every scale count to -1.
func (k *Kernel) PoisonVector(r Ref) {
	o := k.operand(r)
	for i := range o.clv {
		o.clv[i] = math.NaN()
	}
	for i := range o.scale {
		o.scale[i] = -1
	}
}

// ShrinkSites multiplies every entry the CLV or outer vector r holds at
// the given sites by f, so a test can make a column small enough for the
// next combine over it to rescale.
func (k *Kernel) ShrinkSites(r Ref, sites []int, f float64) {
	clv := k.operand(r).clv
	for p := 0; p < len(clv)/k.nPat; p++ {
		for _, i := range sites {
			clv[p*k.nPat+i] *= f
		}
	}
}

// SiteScaleCount returns how many scaling events the last single-site
// evaluation of site's pattern block accumulated over the whole tree.
func (k *Kernel) SiteScaleCount(site int) int32 {
	var n int32
	for _, c := range k.siteScratchOf(site).scale {
		n = max(n, c)
	}
	return n
}

// NewNow is NewKernel for a kernel driven one call at a time.
func NewNow(data *msa.PartitionData, par *model.Params, nInner int) (Now, error) {
	k, err := NewKernel(data, par, nInner)
	return Now{Kernel: k}, err
}
