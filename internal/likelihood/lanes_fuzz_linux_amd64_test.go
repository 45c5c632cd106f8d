package likelihood

import (
	"encoding/binary"
	"math"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/model"
	"repro/internal/msa"
)

// guardArena hands out slices that sit flush against a PROT_NONE page:
// each one gets a mapping of its own with an inaccessible page on either
// side, its last byte against the one after it (atEnd) or its first byte
// against the one before it. A routine that reads or writes one element
// past the end (or before the start) of such a slice faults.
type guardArena struct {
	tb    testing.TB
	atEnd bool
	maps  [][]byte
}

func (g *guardArena) bytes(n int) []byte {
	page := syscall.Getpagesize()
	size := (n + page - 1) / page * page
	m, err := syscall.Mmap(-1, 0, size+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		g.tb.Fatal(err)
	}
	g.maps = append(g.maps, m)
	if err := syscall.Mprotect(m[:page], syscall.PROT_NONE); err != nil {
		g.tb.Fatal(err)
	}
	if err := syscall.Mprotect(m[page+size:], syscall.PROT_NONE); err != nil {
		g.tb.Fatal(err)
	}
	if g.atEnd {
		return m[page+size-n : page+size : page+size]
	}
	return m[page : page+n : page+n]
}

// floats returns a guarded copy of v.
func (g *guardArena) floats(v []float64) []float64 {
	f := unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(g.bytes(8*len(v))))), len(v))
	copy(f, v)
	return f
}

// states returns a guarded copy of v.
func (g *guardArena) states(v []msa.State) []msa.State {
	s := unsafe.Slice((*msa.State)(unsafe.Pointer(unsafe.SliceData(g.bytes(len(v))))), len(v))
	copy(s, v)
	return s
}

// ints returns a guarded copy of v.
func (g *guardArena) ints(v []int32) []int32 {
	s := unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(g.bytes(4*len(v))))), len(v))
	copy(s, v)
	return s
}

// bools returns a guarded copy of v.
func (g *guardArena) bools(v []bool) []bool {
	s := unsafe.Slice((*bool)(unsafe.Pointer(unsafe.SliceData(g.bytes(len(v))))), len(v))
	copy(s, v)
	return s
}

// matrices returns a guarded copy of pm.
func (g *guardArena) matrices(pm [][ns * ns]float64) [][ns * ns]float64 {
	f := g.floats(unsafe.Slice(&pm[0][0], len(pm)*ns*ns))
	return unsafe.Slice((*[ns * ns]float64)(unsafe.Pointer(unsafe.SliceData(f))), len(pm))
}

func (g *guardArena) free() {
	for _, m := range g.maps {
		if err := syscall.Munmap(m); err != nil {
			g.tb.Fatal(err)
		}
	}
	g.maps = nil
}

// laneFuzzSpecials are the values every fuzz input mixes into its planes,
// matrices and tables besides its own: signed zeros, a subnormal, the
// scale threshold and the double below it, the NaN, an infinity.
var laneFuzzSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, 1e-310, ScaleThreshold, math.Nextafter(ScaleThreshold, 0),
	defaultNaN, math.Inf(1), 1, -1,
}

// laneFuzzInput is a decoded fuzz input: the block (lo, width w, nPat =
// lo + w patterns), which sides are tips, and the values the operands
// hold.
type laneFuzzInput struct {
	lo, w, nPat            int
	tipA, tipB, tipP, tipQ bool
	tipFar                 bool
	a, b, far, d, ins      []float64
	sa, sb, ds             []int32
	tipsA, tipsB, tipsFar  []msa.State
	pa, pb, ph             [][ns * ns]float64
	tabA, tabB, tabFar     []float64
	site                   []float64
	noScale                []bool
	freqs                  [ns]float64
	catW                   float64
}

// decodeLaneFuzz reads byte 0 as the block width − 1, byte 1 as its start,
// byte 2's bits as the tip flags (Newview and candidate step a and b,
// evaluation p and q, the candidate's far side) and two shrink flags —
// bit 6 multiplies a random half of the sites of a and b (planes, or for
// a tip its table) by 10⁻¹⁶⁰, so those sites of the near vector rescale,
// bit 7 the far side's, so the inserted vertex's do — bytes 3–10 as the seed of the generator that fills the
// operands, and every further 8 bytes as a raw float64 the generator
// draws from alongside laneFuzzSpecials and ordinary values of magnitude
// 1, 10⁻⁸⁰ and 10⁻¹⁶⁰. Any NaN becomes defaultNaN: DETERMINISM §8's
// one-NaN rule, under which every output bit is held.
func decodeLaneFuzz(data []byte) (in laneFuzzInput, ok bool) {
	if len(data) < 11 {
		return in, false
	}
	in.w, in.lo = 1+int(data[0]), int(data[1])
	in.nPat = in.lo + in.w
	fl := data[2]
	in.tipA, in.tipB, in.tipP, in.tipQ, in.tipFar = fl&1 != 0, fl&2 != 0, fl&4 != 0, fl&8 != 0, fl&16 != 0
	rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(data[3:11]))))
	var palette []float64
	for rest := data[11:]; len(rest) >= 8 && len(palette) < 64; rest = rest[8:] {
		v := math.Float64frombits(binary.LittleEndian.Uint64(rest))
		if v != v {
			v = defaultNaN
		}
		palette = append(palette, v)
	}
	value := func() float64 {
		switch r := rng.Intn(16); {
		case r < 4 && len(palette) > 0:
			return palette[rng.Intn(len(palette))]
		case r < 7:
			return laneFuzzSpecials[rng.Intn(len(laneFuzzSpecials))]
		}
		return []float64{1, 1e-80, 1e-160}[rng.Intn(3)] * rng.Float64()
	}
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = value()
		}
		return v
	}
	counts := func(n int) []int32 {
		v := make([]int32, n)
		for i := range v {
			v[i] = int32(rng.Intn(5))
		}
		return v
	}
	codes := func() []msa.State {
		s := make([]msa.State, in.nPat)
		for i := range s {
			s[i] = msa.State(rng.Intn(16))
		}
		return s
	}
	matrices := func() [][ns * ns]float64 {
		pm := make([][ns * ns]float64, gammaCats)
		for c := range pm {
			copy(pm[c][:], fill(ns*ns))
		}
		return pm
	}
	planes := in.nPat * gammaCats * ns
	in.a, in.b, in.far, in.d, in.ins = fill(planes), fill(planes), fill(planes), fill(planes), fill(planes)
	in.sa, in.sb, in.ds = counts(in.nPat), counts(in.nPat), counts(in.nPat)
	in.tipsA, in.tipsB, in.tipsFar = codes(), codes(), codes()
	in.pa, in.pb, in.ph = matrices(), matrices(), matrices()
	in.tabA, in.tabB, in.tabFar = fill(gammaCats*16*ns), fill(gammaCats*16*ns), fill(gammaCats*16*ns)
	// shrink multiplies a random half of the sites of planes v, and of a
	// tip's table rows, by 10⁻¹⁶⁰.
	shrink := func(v, tab []float64) {
		for i := 0; i < in.nPat; i++ {
			if rng.Intn(2) == 0 {
				continue
			}
			for p := 0; p < gammaCats*ns; p++ {
				v[p*in.nPat+i] *= 1e-160
			}
		}
		for i := range tab {
			if rng.Intn(2) == 0 {
				tab[i] *= 1e-160
			}
		}
	}
	if fl&64 != 0 {
		shrink(in.a, in.tabA)
		shrink(in.b, in.tabB)
	}
	if fl&128 != 0 {
		shrink(in.far, in.tabFar)
	}
	in.site = fill(in.w)
	in.noScale = make([]bool, in.w)
	for j := range in.noScale {
		in.noScale[j] = rng.Intn(4) == 0
	}
	copy(in.freqs[:], fill(ns))
	in.catW = value()
	return in, true
}

// laneFuzzRun runs the three Γ site-lane workers on the input's block —
// [lo, nPat) or, with atStart, [0, w) — at the current lane width, every
// slice from g, and returns the bits of every double, count and flag they
// wrote: the Newview's whole destination CLV, its scale counts and noScale
// flags, then the evaluation's per-site likelihoods, then the candidate's
// per-site likelihoods, noScale flags and the step's slot: its scale
// counts and its entries.
func laneFuzzRun(in *laneFuzzInput, g *guardArena, atStart bool) []uint64 {
	lo := in.lo
	if atStart {
		lo = 0
	}
	par := &model.Params{Het: model.Gamma, Freqs: in.freqs}
	k := &Kernel{nPat: in.nPat, par: par}
	for s := msa.State(1); s <= 15; s++ {
		k.tipVec[s] = s.TipVector()
	}
	side := func(tip bool, clv []float64, scale []int32, tips []msa.State, tab []float64) (operand, []float64) {
		if tip {
			o := operand{tips: g.states(tips), rowMasks: rowMasks{mask: 0xffff}}
			if tab == nil {
				return o, nil
			}
			return o, g.floats(tab)
		}
		return operand{clv: g.floats(clv), scale: g.ints(scale)}, nil
	}
	out := []uint64(nil)

	oa, tabA := side(in.tipA, in.a, in.sa, in.tipsA, in.tabA)
	ob, tabB := side(in.tipB, in.b, in.sb, in.tipsB, in.tabB)
	pa, pb := g.matrices(in.pa), g.matrices(in.pb)
	d, ds, noScale := g.floats(in.d), g.ints(in.ds), g.bools(make([]bool, in.w))
	k.newviewGammaBlock(d, ds, noScale, oa, ob, tabA, tabB, pa, pb, lo)
	out = laneBits(laneBits(laneBits(out, d), ds), noScale)

	op, _ := side(in.tipP, in.a, in.sa, in.tipsA, nil)
	oq, tab := side(in.tipQ, in.b, in.sb, in.tipsB, in.tabB)
	site := g.floats(in.site)
	k.evaluateGammaSites(site, op, oq, g.matrices(in.pa), tab, in.catW, lo)
	out = laneBits(out, site)

	far, tabFar := side(in.tipFar, in.far, in.sa, in.tipsFar, in.tabFar)
	ra := &runArgs{dclv: g.floats(in.d), dscale: g.ints(in.ds), oa: oa, ob: ob, pa: pa, pb: pb, tabA: tabA, tabB: tabB,
		far: far, ph: g.matrices(in.ph), tabF: tabFar, catW: in.catW}
	k.insTab = g.floats(in.ins)
	site, noScale = g.floats(in.site), g.bools(in.noScale)
	k.scoreCandidateGammaSites(site, noScale, ra, lo)
	return laneBits(laneBits(laneBits(laneBits(out, site), noScale), ra.dscale), ra.dclv)
}

// FuzzGammaLanes holds the Γ site lanes of every width the CPU runs to the
// Go loops (width 0) by bits — the Newview block with its scaling and
// scale counts, the evaluation, and the candidate with the near vector it
// stores — in every operand shape, on blocks of 1–256 sites whose every
// slice — planes, scale counts, tip codes, tables, matrices,
// per-site likelihoods, noScale flags — sits flush against a PROT_NONE
// page: once with the block at the end of its operands and their ends
// against the guard, once with the block at the start and their starts
// against it. A masked tail that reads or writes one lane too far faults;
// a store one lane off changes a bit. The seeds are TestLanesMatchGoLoop's
// operand shapes at widths around each tail length, each with nothing
// shrunk, with the near vector rescaling at some sites, with the inserted
// vertex rescaling, and with both.
func FuzzGammaLanes(f *testing.F) {
	for flags := 0; flags < 32; flags++ {
		for _, extra := range []int{0, 64, 128, 64 | 128} {
			for _, w := range []int{1, 3, 4, 7, 8, 9, 255, 256} {
				seed := []byte{byte(w - 1), byte(flags * 7), byte(flags | extra), byte(w), 1, 2, 3, 4, 5, 6, 7}
				seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(ScaleThreshold))
				f.Add(seed)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ok := decodeLaneFuzz(data)
		if !ok {
			return
		}
		widths := LaneWidths()
		defer SetLanes(SetLanes(0))
		for _, atStart := range []bool{false, true} {
			SetLanes(0)
			ref := guardArena{tb: t, atEnd: !atStart}
			want := laneFuzzRun(&in, &ref, atStart)
			ref.free()
			for _, width := range widths[1:] {
				SetLanes(width)
				g := guardArena{tb: t, atEnd: !atStart}
				got := laneFuzzRun(&in, &g, atStart)
				g.free()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("width %d, block of %d sites at %d (starts against the guard: %v), tips a=%v b=%v p=%v q=%v far=%v: output %d is %#x, the Go loop's %#x",
							width, in.w, in.lo, atStart, in.tipA, in.tipB, in.tipP, in.tipQ, in.tipFar, i, got[i], want[i])
					}
				}
			}
		}
	})
}
