package parsimony

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/msa"
	"repro/internal/seqgen"
	"repro/internal/tree"
)

// TestDirectionalScoreEqualsFitchPass checks the directional score of
// every SPR candidate of every prune point against a full Fitch pass
// over the tree with the subtree actually regrafted there, on random
// topologies — which put tips on merged edges and at subtree roots —
// over data with one all-gap taxon: the generated alignments as they
// come, and cut or repeated to 1, 63, 64, 65 and 129 patterns under
// weights up to 2²⁰, so that the padding of a last word and every weight
// plane of the bit-plane sets meet the byte-per-pattern Score.
func TestDirectionalScoreEqualsFitchPass(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 6; seed++ {
		res, err := seqgen.Generate(seqgen.PartitionedGenes(11, 2, 60, seed))
		if err != nil {
			t.Fatal(err)
		}
		for j := range res.Alignment.Seqs[3] {
			res.Alignment.Seqs[3][j] = msa.StateGap
		}
		d, err := msa.Compress(res.Alignment, res.Partitions)
		if err != nil {
			t.Fatal(err)
		}
		full := NewData(d)
		rng := rand.New(rand.NewSource(seed))
		for _, np := range []int{full.NPatterns(), 1, 63, 64, 65, 129} {
			data := full
			if np != full.NPatterns() {
				data = resized(full, np, rng)
			}
			b := newBuilder(data, 1, seed)
			tr := tree.NewRandom(d.Names, 1, rand.New(rand.NewSource(seed)))
			n, tipOnMergedEdge := checkDirectional(t, b, tr)
			if !tipOnMergedEdge {
				t.Errorf("seed %d, %d patterns: no prune point had a tip on its merged edge", seed, np)
			}
			checked += n
		}
	}
	if checked < 6000 {
		t.Errorf("only %d candidates checked", checked)
	}
}

// resized returns d's first np patterns, repeated from the first where
// d has fewer, under random weights of 1 to 2²⁰ bits, a fifth of them
// 2²⁰ itself.
func resized(d *Data, np int, rng *rand.Rand) *Data {
	out := &Data{Names: d.Names, Tips: make([][]msa.State, len(d.Tips)), Weights: make([]int32, np)}
	for i := range out.Weights {
		out.Weights[i] = 1 << 20
		if rng.Intn(5) != 0 {
			out.Weights[i] = rng.Int31n(1<<(1+rng.Intn(20))) + 1
		}
	}
	for taxon, row := range d.Tips {
		out.Tips[taxon] = make([]msa.State, np)
		for i := range out.Tips[taxon] {
			out.Tips[taxon][i] = row[i%len(row)]
		}
	}
	return out
}

// TestSetsArePlanesOfFitchSets holds every directional set of a random
// tree, after the down and up passes Stepwise makes, to the byte-per-
// pattern Fitch set of the same half-node, plane by plane, and wants
// every state in the padding past the last pattern: there a set must
// never miss, whatever the weights.
func TestSetsArePlanesOfFitchSets(t *testing.T) {
	res, err := seqgen.Generate(seqgen.PartitionedGenes(11, 2, 60, 1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	full := NewData(d)
	rng := rand.New(rand.NewSource(1))
	for _, np := range []int{1, 63, 64, 65, 129} {
		data := resized(full, np, rng)
		b := newBuilder(data, 1, 1)
		tr := tree.NewRandom(d.Names, 1, rand.New(rand.NewSource(int64(np))))
		b.sets = make([][]uint64, len(tr.HalfNodes))
		root := tr.Tip(0).Back
		b.down(root)
		b.up(root.Next)
		b.up(root.Next.Next)
		var fitchSet func(h *tree.Node) []msa.State
		fitchSet = func(h *tree.Node) []msa.State {
			if h.IsTip() {
				return data.Tips[h.TaxonID]
			}
			x, y := fitchSet(h.Next.Back), fitchSet(h.Next.Next.Back)
			out := make([]msa.State, np)
			for i := range out {
				if out[i] = x[i] & y[i]; out[i] == 0 {
					out[i] = x[i] | y[i]
				}
			}
			return out
		}
		for _, h := range tr.HalfNodes {
			if h.IsTip() || h.Back == nil {
				continue
			}
			want, got := fitchSet(h), b.set(h)
			for i := 0; i < 64*b.words; i++ {
				w := msa.State(15)
				if i < np {
					w = want[i]
				}
				var g msa.State
				for s := 0; s < ns; s++ {
					g |= msa.State(got[s*b.words+i/64]>>(i%64)&1) << s
				}
				if g != w {
					t.Fatalf("%d patterns, half-node %d, pattern %d: planes hold %04b, want %04b", np, h.ID, i, g, w)
				}
			}
		}
	}
}

// checkDirectional scores every SPR candidate (radius 5) of every prune
// point of tr from b's directional sets and holds each score to Score
// over the regrafted tree. It returns the number of candidates checked
// and whether a prune point had a tip on its merged edge.
func checkDirectional(t *testing.T, b *Builder, tr *tree.Tree) (checked int, tipOnMergedEdge bool) {
	t.Helper()
	b.sets = make([][]uint64, len(tr.HalfNodes))
	cur := Score(tr, b.data)
	for v := 0; v < tr.NInner(); v++ {
		for _, p := range tr.InnerRing(v).Ring() {
			ps, err := tr.Prune(p)
			if err != nil {
				t.Fatal(err)
			}
			q, r := ps.MergedEdge()
			tipOnMergedEdge = tipOnMergedEdge || q.IsTip() || r.IsTip()
			b.down(q)
			b.down(r)
			b.down(p.Back)
			sub := b.set(p.Back)
			base := cur - b.insertionCost(q, sub)
			for _, e := range ps.CandidateEdges(1, 5) {
				b.combine(e)
				got := base + b.insertionCost(e, sub)
				if err := tr.Regraft(ps, e); err != nil {
					t.Fatal(err)
				}
				if want := Score(tr, b.data); got != want {
					t.Fatalf("%d patterns, prune %d candidate %d: directional score %d, Fitch pass %d", b.data.NPatterns(), p.ID, e.ID, got, want)
				}
				if err := tr.RemoveRegraft(ps); err != nil {
					t.Fatal(err)
				}
				checked++
			}
			if err := tr.Restore(ps); err != nil {
				t.Fatal(err)
			}
		}
	}
	return checked, tipOnMergedEdge
}

// TestBuildUnchangedFromPerCandidateScoring pins Build to the trees and
// scores the per-candidate Fitch passes produced: the digests were
// captured on the commit before directional scoring replaced them.
func TestBuildUnchangedFromPerCandidateScoring(t *testing.T) {
	want := []struct {
		taxa, parts, geneLen int
		seed, score          int64
		newick               string
	}{
		{12, 1, 300, 1, 410, "cb79c460b9979efb"},
		{12, 1, 300, 2, 372, "fed1042064cb6db6"},
		{12, 1, 300, 3, 514, "62172ecdc9d62a20"},
		{12, 1, 300, 4, 446, "71bf6f5053ef50a3"},
		{12, 1, 300, 5, 571, "4acabe67db0ca170"},
		{12, 1, 300, 6, 497, "78db2cfef5459c55"},
		{12, 1, 300, 7, 500, "57f310ba60623f03"},
		{12, 1, 300, 8, 510, "9e7f7071fc1b63ef"},
		{12, 1, 300, 9, 385, "57ec028db8ce208f"},
		{12, 1, 300, 10, 582, "cbaf7fceda8460ea"},
		{12, 1, 300, 11, 424, "fbbe82da7ff758aa"},
		{12, 1, 300, 12, 406, "a3f09d30ad1c2ef4"},
		{24, 3, 100, 1, 899, "8903e759145ebe71"},
		{24, 3, 100, 2, 695, "e96339e7905683c4"},
		{24, 3, 100, 3, 998, "80a41489c5b29410"},
		{24, 3, 100, 4, 814, "6fa068bfec5d83b0"},
		{24, 3, 100, 5, 843, "0d0ef162976364ff"},
		{24, 3, 100, 6, 800, "7f4c22299eadeb9a"},
		{24, 3, 100, 7, 1046, "a454d0c5d42a8c42"},
		{24, 3, 100, 8, 902, "3a28cde025f3936f"},
		{24, 3, 100, 9, 939, "548882064bf9a471"},
		{24, 3, 100, 10, 988, "8182ccac9be94b23"},
		{24, 3, 100, 11, 752, "b3ad86d06ded350b"},
		{24, 3, 100, 12, 865, "1fcc11915cc2eeca"},
		{40, 4, 100, 1, 1840, "dc997253e36e7b0b"},
		{40, 4, 100, 2, 2255, "283ba54c15669b77"},
		{40, 4, 100, 3, 1803, "f578010d5ea20047"},
		{40, 4, 100, 4, 1754, "02b62faf01ca3e02"},
		{40, 4, 100, 5, 1989, "826cbcd9716b724e"},
		{40, 4, 100, 6, 2550, "779e003ce53f5de9"},
		{40, 4, 100, 7, 2007, "6a7014bf90bf1e92"},
		{40, 4, 100, 8, 2290, "bd901d97a1b3c0ec"},
		{40, 4, 100, 9, 1709, "f34b5da17296a826"},
		{40, 4, 100, 10, 1971, "364ed8a3cca18229"},
		{40, 4, 100, 11, 1767, "c2548faa143aa931"},
		{40, 4, 100, 12, 2018, "6d7a0abd2a8e5a1b"},
	}
	shape := -1
	for i, w := range want {
		if i == 0 || w.taxa != want[i-1].taxa {
			shape++
		}
		res, err := seqgen.Generate(seqgen.PartitionedGenes(w.taxa, w.parts, w.geneLen, 100*int64(shape)+w.seed))
		if err != nil {
			t.Fatal(err)
		}
		d, err := msa.Compress(res.Alignment, res.Partitions)
		if err != nil {
			t.Fatal(err)
		}
		tr, score, err := Build(d, 1, w.seed)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(tr.Newick()))
		if got := fmt.Sprintf("%x", sum[:8]); score != w.score || got != w.newick {
			t.Errorf("%d taxa seed %d: score %d Newick digest %s, want %d %s", w.taxa, w.seed, score, got, w.score, w.newick)
		}
	}
}
