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
// over data with one all-gap taxon.
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
		b, err := NewBuilder(d, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		tr := tree.NewRandom(d.Names, 1, rand.New(rand.NewSource(seed)))
		b.sets = make([][]msa.State, len(tr.HalfNodes))
		cur := Score(tr, b.data)
		tipOnMergedEdge := false
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
						t.Fatalf("seed %d prune %d candidate %d: directional score %d, Fitch pass %d", seed, p.ID, e.ID, got, want)
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
		if !tipOnMergedEdge {
			t.Errorf("seed %d: no prune point had a tip on its merged edge", seed)
		}
	}
	if checked < 1000 {
		t.Errorf("only %d candidates checked", checked)
	}
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
