// Package distrib implements the two data-distribution strategies the
// paper's experiments toggle between:
//
//   - Cyclic: site patterns of every partition are dealt round-robin over
//     the ranks — near-perfect per-site balance, but every rank touches
//     every partition, so per-partition work (P(t) construction, model
//     updates) is replicated p times per rank and scales badly with many
//     partitions (see [24] in the paper).
//
//   - MPS (the -Q option): whole partitions are assigned monolithically to
//     ranks. Optimal assignment is the NP-hard multiprocessor-scheduling
//     problem; following the paper's reference [24], we use the
//     longest-processing-time (LPT) greedy heuristic, which is a 4/3
//     approximation and is what matters in practice.
//
// Assignments are pure functions of (pattern counts, rank count), so every
// rank can compute the identical assignment locally — the de-centralized
// engine relies on this to avoid distribution broadcasts.
package distrib

import (
	"fmt"
	"sort"

	"repro/internal/msa"
)

// Strategy selects a distribution algorithm.
type Strategy int

// Available strategies.
const (
	// Cyclic deals patterns round-robin (the default).
	Cyclic Strategy = iota
	// MPS assigns whole partitions to ranks (the -Q option).
	MPS
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	if s == Cyclic {
		return "cyclic"
	}
	return "MPS"
}

// Share is one rank's slice of one partition.
type Share struct {
	// Part is the partition index in the dataset.
	Part int
	// Patterns lists the owned pattern indices (ascending).
	Patterns []int
}

// Assignment maps every rank to its shares.
type Assignment struct {
	// Strategy records how the assignment was computed.
	Strategy Strategy
	// PerRank[r] lists rank r's shares, ordered by partition index.
	PerRank [][]Share
}

// Compute builds the assignment for the given pattern counts per
// partition.
func Compute(strategy Strategy, patternCounts []int, nRanks int) (*Assignment, error) {
	if nRanks < 1 {
		return nil, fmt.Errorf("distrib: %d ranks", nRanks)
	}
	if len(patternCounts) == 0 {
		return nil, fmt.Errorf("distrib: no partitions")
	}
	for p, n := range patternCounts {
		if n < 1 {
			return nil, fmt.Errorf("distrib: partition %d has %d patterns", p, n)
		}
	}
	a := &Assignment{Strategy: strategy, PerRank: make([][]Share, nRanks)}
	switch strategy {
	case Cyclic:
		computeCyclic(a, patternCounts, nRanks)
	case MPS:
		computeMPS(a, patternCounts, nRanks)
	default:
		return nil, fmt.Errorf("distrib: unknown strategy %d", strategy)
	}
	return a, nil
}

// computeCyclic deals the global pattern sequence round-robin: pattern j
// of partition p goes to rank (offset_p + j) mod nRanks, with offset_p the
// running global pattern index — so consecutive patterns land on
// consecutive ranks across partition boundaries too.
func computeCyclic(a *Assignment, patternCounts []int, nRanks int) {
	offset := 0
	for p, n := range patternCounts {
		buckets := make([][]int, nRanks)
		for j := 0; j < n; j++ {
			r := (offset + j) % nRanks
			buckets[r] = append(buckets[r], j)
		}
		offset += n
		for r := 0; r < nRanks; r++ {
			if len(buckets[r]) > 0 {
				a.PerRank[r] = append(a.PerRank[r], Share{Part: p, Patterns: buckets[r]})
			}
		}
	}
}

// computeMPS assigns whole partitions by longest-processing-time: sort by
// pattern count descending (ties by index for determinism), then place
// each on the currently least-loaded rank (ties by rank id).
func computeMPS(a *Assignment, patternCounts []int, nRanks int) {
	order := make([]int, len(patternCounts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		px, py := order[x], order[y]
		if patternCounts[px] != patternCounts[py] {
			return patternCounts[px] > patternCounts[py]
		}
		return px < py
	})
	load := make([]int, nRanks)
	for _, p := range order {
		best := 0
		for r := 1; r < nRanks; r++ {
			if load[r] < load[best] {
				best = r
			}
		}
		load[best] += patternCounts[p]
		all := make([]int, patternCounts[p])
		for j := range all {
			all[j] = j
		}
		a.PerRank[best] = append(a.PerRank[best], Share{Part: p, Patterns: all})
	}
	for r := range a.PerRank {
		sort.Slice(a.PerRank[r], func(x, y int) bool { return a.PerRank[r][x].Part < a.PerRank[r][y].Part })
	}
}

// Load returns the number of patterns rank r owns.
func (a *Assignment) Load(r int) int {
	t := 0
	for _, sh := range a.PerRank[r] {
		t += len(sh.Patterns)
	}
	return t
}

// Balance reports the maximum and mean per-rank pattern load; max/mean is
// the imbalance factor the cost model uses.
func (a *Assignment) Balance() (max int, mean float64) {
	total := 0
	for r := range a.PerRank {
		l := a.Load(r)
		total += l
		if l > max {
			max = l
		}
	}
	return max, float64(total) / float64(len(a.PerRank))
}

// Materialize extracts rank r's local dataset from the full dataset:
// one PartitionData per owned share, in partition order, plus the mapping
// from local slice index back to the dataset partition index.
func (a *Assignment) Materialize(d *msa.Dataset, r int) (parts []*msa.PartitionData, partIdx []int) {
	for _, sh := range a.PerRank[r] {
		full := d.Parts[sh.Part]
		if len(sh.Patterns) == full.NPatterns() {
			parts = append(parts, full)
		} else {
			parts = append(parts, full.Select(sh.Patterns))
		}
		partIdx = append(partIdx, sh.Part)
	}
	return parts, partIdx
}

// Validate checks that the assignment covers every pattern of every
// partition exactly once.
func (a *Assignment) Validate(patternCounts []int) error {
	seen := make([][]bool, len(patternCounts))
	for p, n := range patternCounts {
		seen[p] = make([]bool, n)
	}
	for r, shares := range a.PerRank {
		for _, sh := range shares {
			if sh.Part < 0 || sh.Part >= len(patternCounts) {
				return fmt.Errorf("distrib: rank %d references partition %d", r, sh.Part)
			}
			for _, j := range sh.Patterns {
				if j < 0 || j >= len(seen[sh.Part]) {
					return fmt.Errorf("distrib: rank %d partition %d pattern %d out of range", r, sh.Part, j)
				}
				if seen[sh.Part][j] {
					return fmt.Errorf("distrib: partition %d pattern %d assigned twice", sh.Part, j)
				}
				seen[sh.Part][j] = true
			}
		}
	}
	for p := range seen {
		for j, ok := range seen[p] {
			if !ok {
				return fmt.Errorf("distrib: partition %d pattern %d unassigned", p, j)
			}
		}
	}
	return nil
}
