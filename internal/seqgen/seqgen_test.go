package seqgen

import (
	"math/rand"
	"testing"

	"repro/internal/msa"
	"repro/internal/tree"
)

func TestGenerateBasic(t *testing.T) {
	cfg := Config{
		NTaxa: 8,
		Specs: []Spec{
			{Name: "g1", NSites: 200, Alpha: 0.5},
			{Name: "g2", NSites: 100, Alpha: 2.0, GapProb: 0.05},
		},
		Seed: 1,
	}
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Alignment.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Alignment.NTaxa() != 8 || res.Alignment.NSites() != 300 {
		t.Fatalf("dims %dx%d", res.Alignment.NTaxa(), res.Alignment.NSites())
	}
	if err := res.Tree.Check(); err != nil {
		t.Fatal(err)
	}
	if len(res.Partitions) != 2 || res.Partitions[1].Lo != 200 || res.Partitions[1].Hi != 300 {
		t.Fatalf("partitions %+v", res.Partitions)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := PartitionedGenes(10, 3, 50, 42)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tree.Newick() != b.Tree.Newick() {
		t.Fatal("trees differ for same seed")
	}
	for i := range a.Alignment.Seqs {
		for j := range a.Alignment.Seqs[i] {
			if a.Alignment.Seqs[i][j] != b.Alignment.Seqs[i][j] {
				t.Fatalf("alignment differs at (%d,%d)", i, j)
			}
		}
	}
	c, err := Generate(PartitionedGenes(10, 3, 50, 43))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Alignment.Seqs {
		for j := range a.Alignment.Seqs[i] {
			if a.Alignment.Seqs[i][j] != c.Alignment.Seqs[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical alignments")
	}
}

func TestGenerateSignalFollowsTree(t *testing.T) {
	// Sequences of sister taxa must be more similar than distant taxa
	// when branch lengths are short — check the generator puts
	// phylogenetic signal in the data at all: the fraction of identical
	// sites between two random taxa must exceed the 25% random baseline.
	res, err := Generate(Config{
		NTaxa:            12,
		Specs:            []Spec{{Name: "g", NSites: 2000, Alpha: 1}},
		Seed:             7,
		MeanBranchLength: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	match := 0
	for j := 0; j < 2000; j++ {
		if res.Alignment.Seqs[0][j] == res.Alignment.Seqs[1][j] {
			match++
		}
	}
	if float64(match)/2000 < 0.35 {
		t.Fatalf("taxa share only %d/2000 sites; no phylogenetic signal", match)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Config{NTaxa: 2, Specs: []Spec{{Name: "x", NSites: 10, Alpha: 1}}}); err == nil {
		t.Error("2 taxa accepted")
	}
	if _, err := Generate(Config{NTaxa: 5}); err == nil {
		t.Error("no partitions accepted")
	}
	if _, err := Generate(Config{NTaxa: 5, Specs: []Spec{{Name: "x", NSites: 0, Alpha: 1}}}); err == nil {
		t.Error("empty partition accepted")
	}
	if _, err := Generate(Config{NTaxa: 5, Specs: []Spec{{Name: "x", NSites: 10, Alpha: 0}}}); err == nil {
		t.Error("zero alpha accepted")
	}
}

func TestYuleTreeBranchLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	taxa := make([]string, 30)
	for i := range taxa {
		taxa[i] = string(rune('A'+i%26)) + string(rune('0'+i/26))
	}
	tr := YuleTree(taxa, 0.1, rng)
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, e := range tr.Edges() {
		l := e.Length(0)
		if l < tree.MinBranchLength || l > 2 {
			t.Fatalf("branch length %g out of bounds", l)
		}
		sum += l
	}
	mean := sum / float64(tr.NBranches())
	if mean < 0.02 || mean > 0.4 {
		t.Fatalf("mean branch length %g implausible for target 0.1", mean)
	}
}

func TestPaperRecipes(t *testing.T) {
	lu := LargeUnpartitioned(150, 1000, 1)
	if lu.NTaxa != 150 || len(lu.Specs) != 1 || lu.Specs[0].NSites != 1000 {
		t.Fatalf("LargeUnpartitioned = %+v", lu)
	}
	pg := PartitionedGenes(52, 10, 1000, 1)
	if pg.NTaxa != 52 || len(pg.Specs) != 10 {
		t.Fatalf("PartitionedGenes = %+v", pg)
	}
	for i, sp := range pg.Specs {
		if sp.NSites != 1000 || !(sp.Alpha > 0) {
			t.Fatalf("spec %d = %+v", i, sp)
		}
	}
	// Alphas must differ across genes (per-gene heterogeneity).
	if pg.Specs[0].Alpha == pg.Specs[1].Alpha {
		t.Fatal("gene alphas identical")
	}
	// End-to-end compression of a generated dataset.
	res, err := Generate(PartitionedGenes(8, 4, 100, 5))
	if err != nil {
		t.Fatal(err)
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	if d.NPartitions() != 4 || d.TotalSites() != 400 {
		t.Fatalf("compressed dims: %d parts, %d sites", d.NPartitions(), d.TotalSites())
	}
}
