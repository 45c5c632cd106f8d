// Package seqgen synthesizes the paper's test datasets: random phylogenies
// and DNA alignments evolved along them under GTR with among-site rate
// heterogeneity. The paper's 150-taxon × 20,000,000 bp dataset was itself
// simulated, so simulation is a faithful substitute for both of its
// evaluation workloads; the generator reproduces their two recipes at any
// scale (see LargeUnpartitioned and PartitionedGenes).
package seqgen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/model"
	"repro/internal/msa"
	"repro/internal/tree"
)

// Spec describes one partition to simulate.
type Spec struct {
	// Name is the partition label.
	Name string
	// NSites is the number of alignment columns.
	NSites int
	// Alpha is the Γ shape used to draw per-site rates (heterogeneity of
	// the *generated* data, independent of the inference model).
	Alpha float64
	// GapProb is the per-character probability of masking with a gap.
	GapProb float64
}

// Config drives dataset generation.
type Config struct {
	// NTaxa is the number of sequences.
	NTaxa int
	// Specs lists the partitions.
	Specs []Spec
	// Seed makes generation reproducible.
	Seed int64
	// MeanBranchLength scales the Yule tree's branch lengths (default 0.1).
	MeanBranchLength float64
}

// Result bundles everything the generator produces.
type Result struct {
	// Tree is the true phylogeny the data evolved on.
	Tree *tree.Tree
	// Alignment is the raw simulated alignment.
	Alignment *msa.Alignment
	// Partitions delimit the simulated genes.
	Partitions []msa.Partition
}

// YuleTree draws a random topology by stepwise addition with exponential
// branch lengths of the given mean — a standard pure-birth stand-in.
func YuleTree(taxa []string, meanLen float64, rng *rand.Rand) *tree.Tree {
	t := tree.NewRandom(taxa, 1, rng)
	for _, e := range t.Edges() {
		l := rng.ExpFloat64() * meanLen
		if l < tree.MinBranchLength {
			l = tree.MinBranchLength
		}
		if l > 2 {
			l = 2
		}
		e.SetLength(0, l)
	}
	return t
}

// Generate simulates a dataset per the config.
func Generate(cfg Config) (*Result, error) {
	if cfg.NTaxa < 3 {
		return nil, fmt.Errorf("seqgen: need at least 3 taxa, got %d", cfg.NTaxa)
	}
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("seqgen: no partitions specified")
	}
	mean := cfg.MeanBranchLength
	if mean <= 0 {
		mean = 0.1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	taxa := make([]string, cfg.NTaxa)
	for i := range taxa {
		taxa[i] = fmt.Sprintf("T%04d", i)
	}
	tr := YuleTree(taxa, mean, rng)

	total := 0
	for i, sp := range cfg.Specs {
		if sp.NSites < 1 {
			return nil, fmt.Errorf("seqgen: partition %d has %d sites", i, sp.NSites)
		}
		if !(sp.Alpha > 0) {
			return nil, fmt.Errorf("seqgen: partition %d alpha = %g", i, sp.Alpha)
		}
		total += sp.NSites
	}

	align := &msa.Alignment{Names: taxa, Seqs: make([][]msa.State, cfg.NTaxa)}
	for i := range align.Seqs {
		align.Seqs[i] = make([]msa.State, 0, total)
	}

	var parts []msa.Partition
	offset := 0
	for _, sp := range cfg.Specs {
		if err := evolvePartition(tr, sp, align, rng); err != nil {
			return nil, err
		}
		parts = append(parts, msa.Partition{Name: sp.Name, Lo: offset, Hi: offset + sp.NSites})
		offset += sp.NSites
	}
	return &Result{Tree: tr, Alignment: align, Partitions: parts}, nil
}

// evolvePartition simulates one partition's columns and appends them to
// every row of the alignment. Each partition draws its own GTR
// exchangeabilities and base frequencies, reflecting the heterogeneous
// per-gene evolution that motivates partitioned analyses.
func evolvePartition(tr *tree.Tree, sp Spec, align *msa.Alignment, rng *rand.Rand) error {
	var rates [model.NumRates]float64
	for i := range rates {
		rates[i] = 0.5 + 2.5*rng.Float64()
	}
	rates[model.NumRates-1] = 1
	var freqs [msa.NumStates]float64
	sum := 0.0
	for i := range freqs {
		freqs[i] = 0.15 + rng.Float64()
		sum += freqs[i]
	}
	for i := range freqs {
		freqs[i] /= sum
	}
	eig, err := model.NewEigen(rates, freqs)
	if err != nil {
		return err
	}

	// Per-site rates: the 4-category discretization of Γ(α) — cheap, and
	// allows precomputing only 4 P matrices per branch.
	catRates, err := model.DiscreteGammaMeans(sp.Alpha, model.GammaCategories)
	if err != nil {
		return err
	}
	siteCat := make([]uint8, sp.NSites)
	for i := range siteCat {
		siteCat[i] = uint8(rng.Intn(model.GammaCategories))
	}

	// Root the simulation at the inner vertex adjacent to taxon 0 and
	// evolve outward over all three directions.
	rootStates := make([]uint8, sp.NSites)
	for i := range rootStates {
		rootStates[i] = sampleState(freqs, rng)
	}

	nucleotide := [4]msa.State{msa.StateA, msa.StateC, msa.StateG, msa.StateT}
	emit := func(taxon int, seq []uint8) {
		row := align.Seqs[taxon]
		for _, s := range seq {
			st := nucleotide[s]
			if sp.GapProb > 0 && rng.Float64() < sp.GapProb {
				st = msa.StateGap
			}
			row = append(row, st)
		}
		align.Seqs[taxon] = row
	}

	var descend func(n *tree.Node, parent []uint8, length float64)
	descend = func(n *tree.Node, parent []uint8, length float64) {
		child := evolveAlong(parent, siteCat, catRates, length, eig, rng)
		if n.IsTip() {
			emit(n.TaxonID, child)
			return
		}
		descend(n.Next.Back, child, n.Next.Length(0))
		descend(n.Next.Next.Back, child, n.Next.Next.Length(0))
	}

	root := tr.Tip(0).Back
	for _, r := range root.Ring() {
		descend(r.Back, rootStates, r.Length(0))
	}
	return nil
}

// evolveAlong samples child states for every site given parent states and
// a branch of the given length, using one P matrix per rate category.
func evolveAlong(parent []uint8, siteCat []uint8, catRates []float64, length float64, eig *model.Eigen, rng *rand.Rand) []uint8 {
	var ps [model.GammaCategories][msa.NumStates * msa.NumStates]float64
	for c, r := range catRates {
		eig.ProbMatrix(length, r, &ps[c])
	}
	child := make([]uint8, len(parent))
	for i, x := range parent {
		p := &ps[siteCat[i]]
		u := rng.Float64()
		acc := 0.0
		y := uint8(msa.NumStates - 1)
		for k := 0; k < msa.NumStates; k++ {
			acc += p[int(x)*msa.NumStates+k]
			if u < acc {
				y = uint8(k)
				break
			}
		}
		child[i] = y
	}
	return child
}

func sampleState(freqs [msa.NumStates]float64, rng *rand.Rand) uint8 {
	u := rng.Float64()
	acc := 0.0
	for k := 0; k < msa.NumStates-1; k++ {
		acc += freqs[k]
		if u < acc {
			return uint8(k)
		}
	}
	return msa.NumStates - 1
}

// LargeUnpartitioned is the paper's challenge-(i) recipe — the 150-taxon,
// 20,000,000 bp simulated DNA alignment — parameterized by size so it can
// be generated at laptop scale (the figure-3 harness default) or at full
// paper scale. It returns a single-partition config.
func LargeUnpartitioned(nTaxa, nSites int, seed int64) Config {
	return Config{
		NTaxa: nTaxa,
		Specs: []Spec{{Name: "ALL", NSites: nSites, Alpha: 0.8, GapProb: 0.02}},
		Seed:  seed,
	}
}

// PartitionedGenes is the paper's challenge-(ii) recipe: a 52-taxon
// alignment cut into p gene partitions of geneLen (~1000 bp in the paper)
// with per-gene evolutionary heterogeneity. α varies across genes to make
// per-partition parameter optimization meaningful.
func PartitionedGenes(nTaxa, p, geneLen int, seed int64) Config {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	specs := make([]Spec, p)
	for i := range specs {
		specs[i] = Spec{
			Name:    fmt.Sprintf("gene%04d", i),
			NSites:  geneLen,
			Alpha:   math.Exp(rng.NormFloat64()*0.5) * 0.7,
			GapProb: 0.01,
		}
	}
	return Config{NTaxa: nTaxa, Specs: specs, Seed: seed}
}
