package likelihood_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/distrib"
	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/msa"
	"repro/internal/traversal"
	"repro/internal/tree"
)

// ambiguousPartition hand-builds a 9-taxon partition whose rows hold all
// 15 IUPAC states: taxon 3 is all gaps, taxon 0 carries every code, and
// taxon 1 holds R (A|G) at even patterns only — so the two ranks of a
// cyclic split see different state sets for it.
func ambiguousPartition(nPat int) *msa.PartitionData {
	const nTaxa = 9
	rng := rand.New(rand.NewSource(99))
	concrete := []msa.State{msa.StateA, msa.StateC, msa.StateG, msa.StateT}
	pd := &msa.PartitionData{
		Name:    "amb",
		Tips:    make([][]msa.State, nTaxa),
		Weights: make([]int, nPat),
		Freqs:   [4]float64{0.3, 0.2, 0.2, 0.3},
	}
	for i := range pd.Weights {
		pd.Weights[i] = 1 + rng.Intn(3)
	}
	for taxon := range pd.Tips {
		row := make([]msa.State, nPat)
		for i := range row {
			switch {
			case taxon == 3:
				row[i] = msa.StateGap
			case taxon == 0:
				row[i] = msa.State(1 + i%15)
			case taxon == 1 && i%2 == 0:
				row[i] = msa.StateA | msa.StateG
			case taxon != 1 && rng.Intn(4) == 0:
				row[i] = msa.State(1 + rng.Intn(15))
			default:
				row[i] = concrete[rng.Intn(4)]
			}
		}
		pd.Tips[taxon] = row
	}
	return pd
}

// maskFixture builds a kernel over pd with randomized parameters (the
// same for every call with the same het) on the given tree.
func maskFixture(t *testing.T, pd *msa.PartitionData, tr *tree.Tree, het model.Heterogeneity) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	par, err := model.NewParams(het, pd.Freqs, pd.NPatterns())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < model.NumRates-1; i++ {
		par.Rates[i] = 0.4 + 2*rng.Float64()
	}
	par.Alpha = 0.6
	if err := par.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if het == model.PSR {
		for i := range par.SiteRates {
			par.SiteRates[i] = math.Exp(rng.NormFloat64() * 0.5)
		}
		par.CatRates, par.SiteCats, err = model.QuantizeSiteRates(par.SiteRates, pd.Weights, model.MaxPSRCategories)
		if err != nil {
			t.Fatal(err)
		}
	}
	k, err := likelihood.NewNow(pd, par, tr.NInner())
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{tree: tr, pd: pd, par: par, kern: k}
}

// maskTrace drives Newview, Evaluate, Prepare/Derivatives, the pre-order
// gradient and the insertion kernels over every edge of the tree (and
// over two tips joined directly), each call a program of its own run
// after before, and returns every observable output bit.
func maskTrace(t *testing.T, tr *tree.Tree, k stager, before func()) []uint64 {
	var out []uint64
	run := func(stage func()) {
		before()
		stage()
		k.Flush(nil)
	}
	result := func() {
		a, b := k.Gradient(0)
		out = append(out, math.Float64bits(a), math.Float64bits(b))
	}
	for _, e := range tr.Edges() {
		for _, s := range traversal.ForEdge(tr, e, 0, true) {
			run(func() { k.Newview(s) })
		}
		p, q := traversal.Ref(tr, e), traversal.Ref(tr, e.Back)
		// No edge joins two tips; the all-code taxon 0 and the all-gap
		// taxon 3 stand in for one.
		for _, pq := range [][2]likelihood.Ref{{p, q}, {q, p}, {likelihood.TipAt(0), likelihood.TipAt(3)}} {
			run(func() { k.Evaluate(pq[0], pq[1], e.Length(0)) })
			result()
			run(func() { k.Contract(0, pq[0], pq[1]) })
			for _, bl := range []float64{0.07, 0.4} {
				run(func() { k.Derivatives(0, bl) })
				result()
			}
		}
		for s := 0; s < tr.NInner(); s++ {
			out = append(out, k.CLVDigest(s))
		}
	}
	for _, s := range traversal.ForEdge(tr, tr.Tip(0), 0, true) {
		run(func() { k.Newview(s) })
	}
	plan, _ := traversal.BuildGradient(tr, nil)
	for _, s := range plan.Pre[0] {
		run(func() { k.Newview(s) })
	}
	for b, e := range plan.Edges {
		run(func() { k.Contract(b, e.P, e.Q); k.Derivatives(b, plan.T[0][b]) })
		result()
	}
	for _, ins := range insertionPlans(t, tr) {
		for _, s := range ins.Post[0] {
			run(func() { k.Newview(s) })
		}
		run(func() { k.PrepareInsertion(ins.Sub, ins.SubT[0]) })
		for c, s := range ins.Pre[0] {
			run(func() { k.Newview(s) })
			run(func() { k.ScoreInsertion(s.Dst, ins.Far[c], ins.Half[0][c]) })
			result()
		}
	}
	return out
}

// TestMaskedTipTablesReadOnlyWhatTheyFill is the contract of the
// data-aware tip tables: a fill produces entries only for the states the
// tip operand's own row contains — under PSR only for the (category,
// code) pairs its sites hold, on data whose sites use many categories —
// and no kernel reads any other entry.
// Every table entry is poisoned with NaN before every kernel call; the
// tip workers must still give every output bit the inner-inner workers
// give with each tip loaded into an inner slot (tipsAsInner) — Γ and PSR,
// post-order, pre-order and insertion kernels — on data holding all 15
// states and an all-gap taxon, and on a one-pattern slice of it, with the
// vector lanes on and off (the reference without them).
func TestMaskedTipTablesReadOnlyWhatTheyFill(t *testing.T) {
	defer likelihood.SetLanes(likelihood.SetLanes(false))
	full := ambiguousPartition(45)
	names := make([]string, len(full.Tips))
	for i := range names {
		names[i] = fmt.Sprintf("t%02d", i)
	}
	tr := tree.NewRandom(names, 1, rand.New(rand.NewSource(3)))
	rng := rand.New(rand.NewSource(4))
	for _, e := range tr.Edges() {
		e.SetLength(0, 0.02+0.3*rng.Float64())
	}
	for _, pd := range []*msa.PartitionData{full, full.Select([]int{7})} {
		for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
			var want []uint64
			for _, lanes := range laneSettings(t) {
				likelihood.SetLanes(lanes)
				label := fmt.Sprintf("%v/%d patterns lanes=%v", het, pd.NPatterns(), lanes)
				f := maskFixture(t, pd, tr, het)
				ref, fast := tipsAsInner(t, f), passThrough(f)
				inner := maskTrace(t, tr, ref, func() {})
				got := maskTrace(t, tr, fast, fast.PoisonTipTables)
				if want == nil {
					want = inner
				}
				sameBits(t, label+": tips as inner operands vs the same without lanes", inner, want)
				sameBits(t, label+": poisoned tip tables vs tips as inner operands", got, want)
				checkTipReference(t, label, fast, ref)
				fp := fast.FastPath()
				checkLanesReached(t, label, het, lanes, fp)
				if het == model.PSR {
					checkCategoryFills(t, label, f, fast.Kernel)
				}
				if het == model.Gamma {
					if fp.PairTableEntries == 0 || fp.PairTableEntries >= 256*fp.NewviewTipTip {
						t.Errorf("%s: pair tables not mask-driven: %+v", label, fp)
					}
					if pd.NPatterns() == 1 && fp.PairTableEntries != fp.NewviewTipTip {
						t.Errorf("%s: one-pattern slice filled %d pairs in %d tables", label, fp.PairTableEntries, fp.NewviewTipTip)
					}
				}
			}
		}
	}
}

// checkCategoryFills holds each taxon's PSR tip table, filled over a
// NaN-poisoned arena, to the (category, code) pairs of its row: an entry
// is filled exactly when some site of that category holds that code, the
// rest stay NaN, and TipTableEntries counts the filled ones. The full
// partition's sites must use at least three categories, or the table
// would have no category to skip.
func checkCategoryFills(t *testing.T, label string, f *fixture, k *likelihood.Kernel) {
	t.Helper()
	used := map[int]bool{}
	for _, c := range f.par.SiteCats {
		used[c] = true
	}
	if f.pd.NPatterns() > 1 && len(used) < 3 {
		t.Fatalf("%s: the sites use %d categories, want at least 3", label, len(used))
	}
	cats := len(f.par.CatRates)
	for taxon, row := range f.pd.Tips {
		read := make(map[[2]int]bool)
		for i, s := range row {
			read[[2]int{f.par.SiteCats[i], int(s)}] = true
		}
		k.PoisonTipTables()
		before := k.FastPath().TipTableEntries
		tab := k.TipTable(taxon, 0.1)
		if got := k.FastPath().TipTableEntries - before; got != int64(len(read)) {
			t.Errorf("%s: taxon %d: counted %d entries, its sites read %d", label, taxon, got, len(read))
		}
		for c := 0; c < cats; c++ {
			for code := 0; code < 16; code++ {
				if filled := !math.IsNaN(tab[(c*16+code)*4]); filled != read[[2]int{c, code}] {
					t.Errorf("%s: taxon %d: category %d code %d filled %v, read %v", label, taxon, c, code, filled, !filled)
				}
			}
		}
	}
}

// TestTipMaskIsPerLocalSlice: the mask describes the rank's own slice of
// the partition, not the partition — two ranks of a cyclic split hold
// different masks for a taxon whose ambiguity code falls on one rank's
// patterns only.
func TestTipMaskIsPerLocalSlice(t *testing.T) {
	pd := ambiguousPartition(44)
	d := &msa.Dataset{Names: make([]string, len(pd.Tips)), Parts: []*msa.PartitionData{pd}}
	a, err := distrib.Compute(distrib.Cyclic, []int{pd.NPatterns()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var masks [2]uint16
	const r = uint16(1) << (msa.StateA | msa.StateG)
	for rank := range masks {
		parts, _ := a.Materialize(d, rank)
		par, err := model.NewParams(model.Gamma, pd.Freqs, 0)
		if err != nil {
			t.Fatal(err)
		}
		k, err := likelihood.NewNow(parts[0], par, len(pd.Tips)-2)
		if err != nil {
			t.Fatal(err)
		}
		masks[rank] = k.TipMask(1)
		if got := k.TipMask(3); got != 1<<msa.StateGap {
			t.Errorf("rank %d: all-gap taxon mask %016b", rank, got)
		}
		want := uint16(0)
		for _, s := range k.Data().Tips[1] {
			want |= 1 << s
		}
		if masks[rank] != want {
			t.Errorf("rank %d: mask %016b, slice holds %016b", rank, masks[rank], want)
		}
	}
	if masks[0]&r == 0 || masks[1]&r != 0 {
		t.Errorf("R should be in rank 0's mask only: %016b vs %016b", masks[0], masks[1])
	}
}
