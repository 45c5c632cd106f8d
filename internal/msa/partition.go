package msa

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Partition names a contiguous range of alignment columns that share one
// set of model parameters (its own α, GTR rates, base frequencies, and —
// under per-partition branch-length estimation — its own branch lengths).
type Partition struct {
	// Name labels the partition (typically a gene name).
	Name string
	// Lo and Hi delimit the half-open column range [Lo, Hi).
	Lo, Hi int
}

// NSites returns the number of columns in the partition.
func (p Partition) NSites() int { return p.Hi - p.Lo }

// UniformPartitions cuts nSites columns into p equal contiguous partitions
// named part000, part001, … (the paper's 1000-bp gene recipe uses this with
// chunk = 1000). The final partition absorbs any remainder.
func UniformPartitions(nSites, p int) ([]Partition, error) {
	if p < 1 || p > nSites {
		return nil, fmt.Errorf("msa: cannot cut %d sites into %d partitions", nSites, p)
	}
	chunk := nSites / p
	parts := make([]Partition, p)
	for i := 0; i < p; i++ {
		lo := i * chunk
		hi := lo + chunk
		if i == p-1 {
			hi = nSites
		}
		parts[i] = Partition{Name: fmt.Sprintf("part%03d", i), Lo: lo, Hi: hi}
	}
	return parts, nil
}

// ParsePartitionFile parses the RAxML partition-scheme format, one line per
// partition:
//
//	DNA, gene1 = 1-1000
//	DNA, gene2 = 1001-2500
//
// Positions are 1-based and inclusive, as in RAxML. Only the DNA data type
// is supported; blank lines and lines starting with '#' are ignored.
// The partitions must tile the nSites columns — no overlap and no column
// left out, as RAxML demands; they are returned sorted by Lo.
func ParsePartitionFile(text string, nSites int) ([]Partition, error) {
	var parts []Partition
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		comma := strings.Index(line, ",")
		if comma < 0 {
			return nil, fmt.Errorf("msa: partition line %d: missing data-type separator", lineNo+1)
		}
		dtype := strings.TrimSpace(line[:comma])
		if !strings.EqualFold(dtype, "DNA") {
			return nil, fmt.Errorf("msa: partition line %d: unsupported data type %q", lineNo+1, dtype)
		}
		rest := line[comma+1:]
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return nil, fmt.Errorf("msa: partition line %d: missing '='", lineNo+1)
		}
		name := strings.TrimSpace(rest[:eq])
		if name == "" {
			return nil, fmt.Errorf("msa: partition line %d: empty name", lineNo+1)
		}
		rng := strings.TrimSpace(rest[eq+1:])
		dash := strings.Index(rng, "-")
		if dash < 0 {
			return nil, fmt.Errorf("msa: partition line %d: range %q must be lo-hi", lineNo+1, rng)
		}
		lo, err := strconv.Atoi(strings.TrimSpace(rng[:dash]))
		if err != nil {
			return nil, fmt.Errorf("msa: partition line %d: bad lower bound: %v", lineNo+1, err)
		}
		hi, err := strconv.Atoi(strings.TrimSpace(rng[dash+1:]))
		if err != nil {
			return nil, fmt.Errorf("msa: partition line %d: bad upper bound: %v", lineNo+1, err)
		}
		if lo < 1 || hi < lo || hi > nSites {
			return nil, fmt.Errorf("msa: partition line %d: range %d-%d outside 1-%d", lineNo+1, lo, hi, nSites)
		}
		parts = append(parts, Partition{Name: name, Lo: lo - 1, Hi: hi})
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("msa: no partitions defined")
	}
	slices.SortStableFunc(parts, func(a, b Partition) int { return cmp.Compare(a.Lo, b.Lo) })
	covered := 0 // sites [0, covered) lie in the partitions before parts[i]
	for i, p := range parts {
		if p.Lo < covered {
			return nil, fmt.Errorf("msa: partitions %q and %q overlap", parts[i-1].Name, p.Name)
		}
		if p.Lo > covered {
			return nil, fmt.Errorf("msa: sites %d-%d lie in no partition", covered+1, p.Lo)
		}
		covered = p.Hi
	}
	if covered < nSites {
		return nil, fmt.Errorf("msa: sites %d-%d lie in no partition", covered+1, nSites)
	}
	return parts, nil
}

// FormatPartitionFile renders partitions back into the RAxML format.
func FormatPartitionFile(parts []Partition) string {
	var b strings.Builder
	for _, p := range parts {
		fmt.Fprintf(&b, "DNA, %s = %d-%d\n", p.Name, p.Lo+1, p.Hi)
	}
	return b.String()
}
