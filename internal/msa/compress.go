package msa

import "fmt"

// PartitionData is the pattern-compressed form of one partition: the unit
// the likelihood kernels and the data-distribution algorithms operate on.
// Identical alignment columns are collapsed into one pattern with an
// integer weight — the paper notes that the number of unique patterns (not
// raw sites) is what determines conditional-likelihood-array length and
// therefore parallel scalability.
type PartitionData struct {
	// Name is the partition label.
	Name string
	// Tips[taxon][pattern] is the tip state of the taxon at the pattern.
	Tips [][]State
	// Weights[pattern] is the number of alignment columns collapsed into
	// the pattern.
	Weights []int
	// Freqs are the empirical base frequencies of the partition, used as
	// the stationary distribution of its GTR model.
	Freqs [NumStates]float64
}

// NPatterns returns the number of unique site patterns.
func (pd *PartitionData) NPatterns() int { return len(pd.Weights) }

// NSites returns the number of raw alignment columns (sum of weights).
func (pd *PartitionData) NSites() int {
	s := 0
	for _, w := range pd.Weights {
		s += w
	}
	return s
}

// Select returns a view of pd restricted to an arbitrary pattern index
// subset (ascending), copying the selected columns.
func (pd *PartitionData) Select(idx []int) *PartitionData {
	out := &PartitionData{
		Name:    pd.Name,
		Tips:    make([][]State, len(pd.Tips)),
		Weights: make([]int, len(idx)),
		Freqs:   pd.Freqs,
	}
	for k, j := range idx {
		out.Weights[k] = pd.Weights[j]
	}
	for i := range pd.Tips {
		row := make([]State, len(idx))
		for k, j := range idx {
			row[k] = pd.Tips[i][j]
		}
		out.Tips[i] = row
	}
	return out
}

// Dataset is a compressed, partitioned alignment ready for inference.
type Dataset struct {
	// Names are the taxon labels in sorted order (matching tree taxon IDs).
	Names []string
	// Parts holds one compressed block per partition, in partition order.
	Parts []*PartitionData
}

// NTaxa returns the number of taxa.
func (d *Dataset) NTaxa() int { return len(d.Names) }

// NPartitions returns the number of partitions.
func (d *Dataset) NPartitions() int { return len(d.Parts) }

// TotalPatterns sums unique patterns over all partitions.
func (d *Dataset) TotalPatterns() int {
	t := 0
	for _, p := range d.Parts {
		t += p.NPatterns()
	}
	return t
}

// TotalSites sums raw sites over all partitions.
func (d *Dataset) TotalSites() int {
	t := 0
	for _, p := range d.Parts {
		t += p.NSites()
	}
	return t
}

// Compress converts an alignment plus a partition scheme into a Dataset.
// The alignment is first sorted by taxon name so dataset taxon indices
// match tree taxon IDs; within each partition, identical columns are
// collapsed into weighted patterns in first-occurrence order (a
// deterministic order, so every rank computes the identical compression).
func Compress(a *Alignment, parts []Partition) (*Dataset, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		parts = []Partition{{Name: "ALL", Lo: 0, Hi: a.NSites()}}
	}
	sorted := &Alignment{Names: a.Names, Seqs: a.Seqs}
	sorted.SortTaxa()

	d := &Dataset{Names: sorted.Names}
	n := sorted.NTaxa()
	for _, part := range parts {
		if part.Lo < 0 || part.Hi > sorted.NSites() || part.Lo >= part.Hi {
			return nil, fmt.Errorf("msa: partition %q range [%d,%d) outside alignment of %d sites", part.Name, part.Lo, part.Hi, sorted.NSites())
		}
		pd := &PartitionData{
			Name:  part.Name,
			Tips:  make([][]State, n),
			Freqs: sorted.BaseFrequencies(part.Lo, part.Hi),
		}
		index := make(map[string]int)
		col := make([]byte, n)
		for j := part.Lo; j < part.Hi; j++ {
			for i := 0; i < n; i++ {
				col[i] = byte(sorted.Seqs[i][j])
			}
			key := string(col)
			if k, ok := index[key]; ok {
				pd.Weights[k]++
				continue
			}
			index[key] = len(pd.Weights)
			pd.Weights = append(pd.Weights, 1)
			for i := 0; i < n; i++ {
				pd.Tips[i] = append(pd.Tips[i], sorted.Seqs[i][j])
			}
		}
		d.Parts = append(d.Parts, pd)
	}
	return d, nil
}
