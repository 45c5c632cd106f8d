// Package distrib implements the data distribution: which rank holds
// which site patterns of which partition.
//
// There is one rule, and nothing to choose. Per-rank pattern quotas are
// cyclic distribution's — ⌊N/R⌋, plus one on the first N mod R ranks — so
// the per-site balance is as good as cyclic's. Within those quotas the
// rule keeps partitions whole wherever it can, because every partition a
// rank touches costs it that partition's P(t) set-up and tip tables,
// however few patterns it holds (the effect of the paper's reference
// [24], which its -Q / MPS option addressed with whole partitions at the
// price of balance):
//
//  1. Whole partitions first: in ascending pattern count (ties by index),
//     partitions are dealt round-robin over the ranks while the next one
//     fits in its rank's remaining quota.
//  2. Then the rest, the largest partitions, fill the remaining quotas
//     rank by rank. A partition that crosses a quota boundary is dealt
//     round-robin over the ranks it spans, each taking up to its
//     remaining quota.
//
// So one partition over R ranks is cyclic distribution (pattern j on rank
// j mod R), at most R−1 partitions are split, and no rank holds more than
// ⌈P/R⌉ + 2 of P partitions (distrib_test.go holds all three).
//
// An assignment is a pure function of (pattern counts, rank count), so
// every rank computes the identical one locally — the de-centralized
// engine relies on this to avoid distribution broadcasts.
package distrib

import (
	"fmt"
	"sort"

	"repro/internal/msa"
)

// Strategy names the distribution rule.
type Strategy int

// Cyclic is the one rule; benchmark/ pins the name.
const Cyclic Strategy = 0

// Share is one rank's slice of one partition.
type Share struct {
	// Part is the partition index in the dataset.
	Part int
	// Patterns lists the owned pattern indices (ascending).
	Patterns []int
}

// Assignment maps every rank to its shares.
type Assignment struct {
	// PerRank[r] lists rank r's shares, ordered by partition index.
	PerRank [][]Share
}

// Compute builds the assignment for the given pattern counts per
// partition.
func Compute(strategy Strategy, patternCounts []int, nRanks int) (*Assignment, error) {
	if strategy != Cyclic {
		return nil, fmt.Errorf("distrib: unknown strategy %d", strategy)
	}
	if nRanks < 1 {
		return nil, fmt.Errorf("distrib: %d ranks", nRanks)
	}
	if len(patternCounts) == 0 {
		return nil, fmt.Errorf("distrib: no partitions")
	}
	total := 0
	for p, n := range patternCounts {
		if n < 1 {
			return nil, fmt.Errorf("distrib: partition %d has %d patterns", p, n)
		}
		total += n
	}
	quota := make([]int, nRanks)
	for r := range quota {
		quota[r] = total / nRanks
		if r < total%nRanks {
			quota[r]++
		}
	}
	order := make([]int, len(patternCounts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return patternCounts[order[x]] < patternCounts[order[y]] })

	a := &Assignment{PerRank: make([][]Share, nRanks)}
	i := 0
	for ; i < len(order); i++ {
		p, r := order[i], i%nRanks
		if patternCounts[p] > quota[r] {
			break
		}
		quota[r] -= patternCounts[p]
		a.PerRank[r] = append(a.PerRank[r], Share{Part: p, Patterns: upTo(patternCounts[p])})
	}
	r := 0
	for _, p := range order[i:] {
		a.split(p, patternCounts[p], quota, &r)
	}
	for r := range a.PerRank {
		sort.Slice(a.PerRank[r], func(x, y int) bool { return a.PerRank[r][x].Part < a.PerRank[r][y].Part })
	}
	return a, nil
}

// split places partition p's n patterns on the ranks from *r on, taking
// each rank's remaining quota in turn, and deals them round-robin over
// the ranks that take a part, each up to its part. *r is left at the
// last rank taking one.
func (a *Assignment) split(p, n int, quota []int, r *int) {
	var ranks, parts []int
	for left := n; left > 0; {
		for quota[*r] == 0 {
			*r++
		}
		take := min(quota[*r], left)
		ranks, parts = append(ranks, *r), append(parts, take)
		quota[*r] -= take
		left -= take
	}
	buckets := make([][]int, len(ranks))
	for j, k := 0, 0; j < n; j, k = j+1, (k+1)%len(ranks) {
		for len(buckets[k]) == parts[k] {
			k = (k + 1) % len(ranks)
		}
		buckets[k] = append(buckets[k], j)
	}
	for k, rank := range ranks {
		a.PerRank[rank] = append(a.PerRank[rank], Share{Part: p, Patterns: buckets[k]})
	}
}

// upTo returns 0, 1, …, n−1.
func upTo(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
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

// Layout reports the most partitions any rank holds and how many
// partitions are split over more than one rank.
func (a *Assignment) Layout() (maxPerRank, split int) {
	ranksOf := map[int]int{}
	for _, shares := range a.PerRank {
		maxPerRank = max(maxPerRank, len(shares))
		for _, sh := range shares {
			ranksOf[sh.Part]++
		}
	}
	for _, n := range ranksOf {
		if n > 1 {
			split++
		}
	}
	return maxPerRank, split
}

// Materialize extracts rank r's local dataset from the full dataset:
// one PartitionData per owned share, in partition order, plus the mapping
// from local slice index back to the dataset partition index. A whole
// partition is the dataset's own PartitionData, not a copy.
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
