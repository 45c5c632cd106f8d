package distrib

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/msa"
)

func TestCyclicCoversAndBalances(t *testing.T) {
	counts := []int{100, 57, 3, 999}
	a, err := Compute(Cyclic, counts, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(counts); err != nil {
		t.Fatal(err)
	}
	max, mean := a.Balance()
	if float64(max) > mean*1.05+1 {
		t.Fatalf("cyclic imbalance: max %d vs mean %.1f", max, mean)
	}
}

// TestRuleProperties holds the distribution rule to its contract over
// random pattern counts (up to 40 partitions, a share of them 1–5
// patterns) and up to 9 ranks: every pattern is covered once, rank r
// holds cyclic's quota ⌊N/R⌋ + [r < N mod R], one partition is dealt
// exactly as cyclic deals it (pattern j on rank j mod R), at most R−1
// partitions are split (Σ shares ≤ P + R − 1), no rank holds more than
// ⌈P/R⌉ + 2 partitions, and the assignment is a pure function of its
// inputs.
func TestRuleProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 5000; trial++ {
		nParts, nRanks := 1+rng.Intn(40), 1+rng.Intn(9)
		counts := make([]int, nParts)
		total := 0
		for i := range counts {
			counts[i] = 1 + rng.Intn(5)
			if rng.Intn(3) > 0 {
				counts[i] = 1 + rng.Intn(300)
			}
			total += counts[i]
		}
		a, err := Compute(Cyclic, counts, nRanks)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(counts); err != nil {
			t.Fatalf("counts %v, %d ranks: %v", counts, nRanks, err)
		}
		shares := 0
		for r := range a.PerRank {
			want := total / nRanks
			if r < total%nRanks {
				want++
			}
			if got := a.Load(r); got != want {
				t.Fatalf("counts %v, %d ranks: rank %d holds %d patterns, want %d", counts, nRanks, r, got, want)
			}
			if len(a.PerRank[r]) > (nParts+nRanks-1)/nRanks+2 {
				t.Fatalf("counts %v, %d ranks: rank %d holds %d partitions", counts, nRanks, r, len(a.PerRank[r]))
			}
			shares += len(a.PerRank[r])
		}
		if shares > nParts+nRanks-1 {
			t.Fatalf("counts %v, %d ranks: %d shares of %d partitions", counts, nRanks, shares, nParts)
		}
		if b, _ := Compute(Cyclic, counts, nRanks); !reflect.DeepEqual(a, b) {
			t.Fatalf("counts %v, %d ranks: a second Compute differs", counts, nRanks)
		}

		one, err := Compute(Cyclic, counts[:1], nRanks)
		if err != nil {
			t.Fatal(err)
		}
		for r, sh := range one.PerRank {
			for _, s := range sh {
				for _, j := range s.Patterns {
					if j%nRanks != r {
						t.Fatalf("one partition of %d patterns on %d ranks: pattern %d on rank %d", counts[0], nRanks, j, r)
					}
				}
			}
		}
	}
}

// TestManySmallPartitionsStayWhole: 20 partitions on 2 ranks are split at
// most once, and neither rank holds more than 11 of them.
func TestManySmallPartitionsStayWhole(t *testing.T) {
	counts := make([]int, 20)
	rng := rand.New(rand.NewSource(7))
	for i := range counts {
		counts[i] = 30 + rng.Intn(20)
	}
	a, err := Compute(Cyclic, counts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if most, split := a.Layout(); most > 11 || split > 1 {
		t.Fatalf("most partitions on a rank %d, split %d: %+v", most, split, a.PerRank)
	}
}

func TestComputeErrors(t *testing.T) {
	if _, err := Compute(Cyclic, []int{5}, 0); err == nil {
		t.Error("0 ranks accepted")
	}
	if _, err := Compute(Cyclic, nil, 3); err == nil {
		t.Error("no partitions accepted")
	}
	if _, err := Compute(Cyclic, []int{0}, 3); err == nil {
		t.Error("empty partition accepted")
	}
	if _, err := Compute(Strategy(99), []int{5}, 3); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestAssignmentsAlwaysPartition(t *testing.T) {
	// Property: for arbitrary inputs, the rule produces an exact partition
	// of all patterns.
	f := func(rawCounts []uint16, rawRanks uint8) bool {
		nRanks := int(rawRanks%32) + 1
		var counts []int
		for _, c := range rawCounts {
			counts = append(counts, int(c%300)+1)
			if len(counts) == 40 {
				break
			}
		}
		if len(counts) == 0 {
			return true
		}
		a, err := Compute(Cyclic, counts, nRanks)
		return err == nil && a.Validate(counts) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMaterialize(t *testing.T) {
	// Build a tiny dataset and check local slices carry the right data.
	d := &msa.Dataset{
		Names: []string{"a", "b", "c"},
		Parts: []*msa.PartitionData{
			{
				Name:    "p0",
				Tips:    [][]msa.State{{1, 2, 4, 8}, {2, 2, 2, 2}, {4, 4, 4, 4}},
				Weights: []int{1, 2, 3, 4},
			},
			{
				Name:    "p1",
				Tips:    [][]msa.State{{8, 8}, {1, 1}, {2, 2}},
				Weights: []int{5, 6},
			},
		},
	}
	a, err := Compute(Cyclic, []int{4, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	parts0, idx0 := a.Materialize(d, 0)
	parts1, idx1 := a.Materialize(d, 1)
	total := 0
	for _, p := range append(parts0, parts1...) {
		total += p.NPatterns()
	}
	if total != 6 {
		t.Fatalf("materialized %d patterns, want 6", total)
	}
	if len(idx0) != len(parts0) || len(idx1) != len(parts1) {
		t.Fatal("index length mismatch")
	}
	// p1 (2 patterns) fits rank 0's quota of 3 whole; p0 splits over the
	// rest, one pattern to rank 0 and three to rank 1.
	if len(parts0) != 2 || parts0[1] != d.Parts[1] {
		t.Fatalf("rank 0 should hold p1 as the dataset's own PartitionData: %v", idx0)
	}
	if parts0[0].Weights[0] != 1 || len(parts1) != 1 || parts1[0].NPatterns() != 3 {
		t.Fatalf("p0 split: rank 0 weights %v, rank 1 holds %v", parts0[0].Weights, idx1)
	}
}
