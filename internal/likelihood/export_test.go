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

func (n Now) ScoreInsertion(near, far Ref, half float64) float64 {
	n.Kernel.ScoreInsertion(near, far, half)
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
// taken from — tip tables, pair table and its scale counts, prep tables —
// with NaN (scale counts with a huge value), after making sure it is
// large enough for any one call's tables. The next fill repairs only the
// entries its masks cover, so a kernel that reads any other entry produces
// a visibly wrong result. Call it between programs.
func (k *Kernel) PoisonTipTables() {
	cats := len(k.par.CatRates)
	k.mem.tabs.take(cats*16*16*ns + 2*cats*16*ns)
	k.mem.tabs.reset()
	k.mem.pairScales.take(1)
	k.mem.pairScales.reset()
	tabs := k.mem.tabs.chunk[:cap(k.mem.tabs.chunk)]
	for i := range tabs {
		tabs[i] = math.NaN()
	}
	scales := k.mem.pairScales.chunk[:cap(k.mem.pairScales.chunk)]
	for i := range scales {
		for j := range scales[i] {
			scales[i][j] = 1 << 20
		}
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

// HasLanes reports whether this CPU runs the vector lanes of the Γ
// workers (lanes.go).
func HasLanes() bool { return haveLanes }

// SetLanes turns the vector lanes on (where the CPU has them) or off and
// returns whether they were on. Call it between programs.
func SetLanes(on bool) (was bool) {
	was = laneMask != 0
	laneMask = laneMaskFor(on)
	return was
}

// Cap returns the number of table doubles the arena holds.
func (a *ProgramArena) Cap() int { return cap(a.tabs.chunk) }

// TipMask returns the state mask of a taxon's row of the kernel's slice.
func (k *Kernel) TipMask(taxon int) uint16 { return k.tipMasks[taxon].mask }

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
