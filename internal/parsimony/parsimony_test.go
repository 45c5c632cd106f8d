package parsimony

import (
	"math/rand"
	"testing"

	"repro/internal/msa"
	"repro/internal/seqgen"
	"repro/internal/tree"
)

func makeDataset(t testing.TB, nTaxa, nSites int, seed int64) *msa.Dataset {
	t.Helper()
	res, err := seqgen.Generate(seqgen.Config{
		NTaxa:            nTaxa,
		Specs:            []seqgen.Spec{{Name: "g", NSites: nSites, Alpha: 1}},
		Seed:             seed,
		MeanBranchLength: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestScoreKnownSmallCase(t *testing.T) {
	// Hand-constructed 4-taxon case. Taxa states at one site:
	// A, A, C, C. Grouping (A,A)|(C,C) needs 1 change; (A,C)|(A,C)
	// needs 2.
	a := &msa.Alignment{
		Names: []string{"t1", "t2", "t3", "t4"},
		Seqs: [][]msa.State{
			{msa.StateA}, {msa.StateA}, {msa.StateC}, {msa.StateC},
		},
	}
	d, err := msa.Compress(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	pd := NewData(d)

	good, err := tree.ParseNewick("((t1:1,t2:1):1,t3:1,t4:1);", 1)
	if err != nil {
		t.Fatal(err)
	}
	if s := Score(good, pd); s != 1 {
		t.Errorf("(t1,t2)|(t3,t4) score = %d, want 1", s)
	}
	bad, err := tree.ParseNewick("((t1:1,t3:1):1,t2:1,t4:1);", 1)
	if err != nil {
		t.Fatal(err)
	}
	if s := Score(bad, pd); s != 2 {
		t.Errorf("(t1,t3)|(t2,t4) score = %d, want 2", s)
	}
}

func TestScoreRootInvariance(t *testing.T) {
	d := makeDataset(t, 12, 200, 1)
	pd := NewData(d)
	tr := tree.NewRandom(d.Names, 1, rand.New(rand.NewSource(2)))
	ref := Score(tr, pd)
	// Score must not depend on the (implementation-internal) rooting;
	// verify by scoring structurally identical trees parsed from Newick
	// written at different rotations — and by brute consistency across
	// clones.
	if got := Score(tr.Clone(), pd); got != ref {
		t.Fatalf("clone score %d != %d", got, ref)
	}
	back, err := tree.ParseNewick(tr.Newick(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := Score(back, pd); got != ref {
		t.Fatalf("reparsed score %d != %d", got, ref)
	}
}

func TestScoreWeightsCount(t *testing.T) {
	// Duplicating a column must double its contribution.
	a := &msa.Alignment{
		Names: []string{"t1", "t2", "t3", "t4"},
		Seqs: [][]msa.State{
			{msa.StateA, msa.StateA}, {msa.StateA, msa.StateA},
			{msa.StateC, msa.StateC}, {msa.StateC, msa.StateC},
		},
	}
	d, err := msa.Compress(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	pd := NewData(d)
	if pd.NPatterns() != 1 {
		t.Fatalf("patterns = %d", pd.NPatterns())
	}
	tr, err := tree.ParseNewick("((t1:1,t2:1):1,t3:1,t4:1);", 1)
	if err != nil {
		t.Fatal(err)
	}
	if s := Score(tr, pd); s != 2 {
		t.Errorf("weighted score = %d, want 2", s)
	}
}

func TestStepwiseBeatsRandom(t *testing.T) {
	// Parsimony stepwise addition must find substantially better trees
	// than random topologies on signal-rich data.
	d := makeDataset(t, 16, 500, 3)
	pd := NewData(d)
	b, err := NewBuilder(d, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	stepwise := b.Stepwise()
	if err := stepwise.Check(); err != nil {
		t.Fatal(err)
	}
	sw := Score(stepwise, pd)

	rnd := tree.NewRandom(d.Names, 1, rand.New(rand.NewSource(7)))
	rs := Score(rnd, pd)
	if sw >= rs {
		t.Fatalf("stepwise score %d not better than random %d", sw, rs)
	}
}

func TestSPRRoundsImprove(t *testing.T) {
	d := makeDataset(t, 14, 300, 5)
	pd := NewData(d)
	// Start from a bad (comb) topology; SPR must improve it.
	tr := tree.NewComb(d.Names, 1)
	before := Score(tr, pd)
	b, err := NewBuilder(d, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	after, err := b.SPRRounds(tr, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("SPR did not improve: %d → %d", before, after)
	}
	if got := Score(tr, pd); got != after {
		t.Fatalf("reported score %d != rescored %d", after, got)
	}
}

func TestBuildRecoversTrueTopology(t *testing.T) {
	// On clean simulated data the parsimony tree should be close to the
	// generating topology.
	res, err := seqgen.Generate(seqgen.Config{
		NTaxa:            10,
		Specs:            []seqgen.Spec{{Name: "g", NSites: 2000, Alpha: 2}},
		Seed:             9,
		MeanBranchLength: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	built, score, err := Build(d, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	if score <= 0 {
		t.Fatalf("score = %d", score)
	}
	rf, err := tree.RobinsonFoulds(res.Tree, built)
	if err != nil {
		t.Fatal(err)
	}
	maxRF := 2 * (10 - 3)
	if rf > maxRF/2 {
		t.Errorf("parsimony tree far from truth: RF %d of max %d", rf, maxRF)
	}
}

func TestBuildDeterministic(t *testing.T) {
	d := makeDataset(t, 12, 150, 13)
	t1, s1, err := Build(d, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	t2, s2, err := Build(d, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 || t1.Newick() != t2.Newick() {
		t.Fatal("Build is not deterministic for a fixed seed")
	}
	t3, _, err := Build(d, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Newick() == t3.Newick() {
		t.Log("different seeds produced the same tree (possible on strong signal)")
	}
}

func TestBuilderValidation(t *testing.T) {
	d := makeDataset(t, 6, 50, 15)
	if _, err := NewBuilder(d, 0, 1); err == nil {
		t.Error("blClasses=0 accepted")
	}
}
