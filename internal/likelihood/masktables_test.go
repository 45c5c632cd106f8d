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

// maskKernel builds a kernel over pd with randomized parameters (the
// same for every call with the same het) on the given tree.
func maskKernel(t *testing.T, pd *msa.PartitionData, tr *tree.Tree, het model.Heterogeneity) likelihood.Now {
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
	return k
}

// maskTrace drives Newview, Evaluate, Prepare/Derivatives and the
// pre-order gradient kernels over every edge of the tree, calling before
// before each kernel call, and returns every observable output bit.
func maskTrace(k likelihood.Now, tr *tree.Tree, before func()) []uint64 {
	var out []uint64
	bits := func(vs ...float64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	for _, e := range tr.Edges() {
		for _, s := range traversal.ForEdge(tr, e, 0, true) {
			before()
			k.Newview(s)
		}
		p, q := traversal.Ref(tr, e), traversal.Ref(tr, e.Back)
		for _, pq := range [][2]likelihood.NodeRef{{p, q}, {q, p}} {
			before()
			bits(k.Evaluate(pq[0], pq[1], e.Length(0)))
			before()
			k.PrepareDerivatives(pq[0], pq[1])
			bits(k.Derivatives(0.07))
			bits(k.Derivatives(0.4))
		}
		for s := 0; s < tr.NInner(); s++ {
			out = append(out, k.CLVDigest(s))
		}
	}
	for _, s := range traversal.ForEdge(tr, tr.Tip(0), 0, true) {
		before()
		k.Newview(s)
	}
	plan, _ := traversal.BuildGradient(tr, nil)
	for _, s := range plan.Pre[0] {
		before()
		k.NewviewOuter(s)
	}
	for b, e := range plan.Edges {
		before()
		bits(k.BranchGradient(e.P, e.Q, plan.T[0][b]))
	}
	return out
}

// TestMaskedTipTablesReadOnlyWhatTheyFill is the contract of the
// data-aware tip tables: a fill produces entries only for the states the
// tip operand's own row contains, and no kernel reads any other entry.
// Every table entry is poisoned with NaN before every kernel call; the
// fast path must still match the generic path (SetFastPath(false)) in
// every output bit — Γ and PSR, post-order and pre-order kernels — on
// data holding all 15 states and an all-gap taxon, and on a one-pattern
// slice of it.
func TestMaskedTipTablesReadOnlyWhatTheyFill(t *testing.T) {
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
	for _, pd := range []*msa.PartitionData{full, full.Slice(7, 8)} {
		for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
			label := fmt.Sprintf("%v/%d patterns", het, pd.NPatterns())
			generic := maskKernel(t, pd, tr, het)
			generic.SetFastPath(false)
			want := maskTrace(generic, tr, func() {})

			fast := maskKernel(t, pd, tr, het)
			got := maskTrace(fast, tr, fast.PoisonTipTables)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s: output %d: fast path %x (%g) != generic %x", label, i, got[i], math.Float64frombits(got[i]), want[i])
					break
				}
			}
			fp := fast.FastPath()
			if fp.NewviewTipTip == 0 || fp.NewviewTipInner == 0 || fp.EvaluateTip == 0 || fp.PrepareTip == 0 {
				t.Errorf("%s: tip dispatch coverage: %+v", label, fp)
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
		for _, s := range k.TipStates(1) {
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
