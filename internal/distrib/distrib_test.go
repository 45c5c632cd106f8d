package distrib

import (
	"math/rand"
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

func TestCyclicEveryRankTouchesBigPartitions(t *testing.T) {
	// Under cyclic distribution with sizeable partitions, every rank holds
	// a piece of every partition — the property that makes per-partition
	// overhead scale with p.
	counts := []int{64, 64, 64, 64, 64}
	a, err := Compute(Cyclic, counts, 4)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if len(a.PerRank[r]) != 5 {
			t.Fatalf("rank %d touches %d partitions, want 5", r, len(a.PerRank[r]))
		}
	}
}

func TestMPSAssignsMonolithically(t *testing.T) {
	counts := []int{50, 40, 30, 20, 10, 10}
	a, err := Compute(MPS, counts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(counts); err != nil {
		t.Fatal(err)
	}
	for r := range a.PerRank {
		for _, sh := range a.PerRank[r] {
			if len(sh.Patterns) != counts[sh.Part] {
				t.Fatalf("rank %d holds a fragment of partition %d", r, sh.Part)
			}
		}
	}
	// LPT on {50,40,30,20,10,10} over 3 ranks: loads 50, 40+10+10=60?
	// LPT: 50→r0, 40→r1, 30→r2, 20→r2(50+?..): trace: loads after each:
	// r0=50, r1=40, r2=30; 20→r1 (40<50? r2=30 is least → r2=50);
	// 10→r1 (40); 10→r1 (50). Final loads: 50,60,50? recompute:
	// after 30→r2: [50,40,30]; 20→r2 → [50,40,50]; 10→r1 → [50,50,50];
	// 10 → r0 (tie, lowest id) → [60,50,50]. Max 60.
	max, mean := a.Balance()
	if max != 60 {
		t.Fatalf("LPT max load = %d, want 60 (mean %.1f)", max, mean)
	}
}

func TestMPSDeterministic(t *testing.T) {
	counts := []int{7, 7, 7, 7, 9, 9, 2}
	a1, err := Compute(MPS, counts, 3)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Compute(MPS, counts, 3)
	if err != nil {
		t.Fatal(err)
	}
	for r := range a1.PerRank {
		if len(a1.PerRank[r]) != len(a2.PerRank[r]) {
			t.Fatal("MPS not deterministic")
		}
		for i := range a1.PerRank[r] {
			if a1.PerRank[r][i].Part != a2.PerRank[r][i].Part {
				t.Fatal("MPS not deterministic")
			}
		}
	}
}

func TestMPSBetterThanNaiveForManyPartitions(t *testing.T) {
	// LPT must get within 4/3 of the mean for many equal partitions.
	counts := make([]int, 500)
	rng := rand.New(rand.NewSource(1))
	for i := range counts {
		counts[i] = 200 + rng.Intn(800)
	}
	a, err := Compute(MPS, counts, 48)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(counts); err != nil {
		t.Fatal(err)
	}
	max, mean := a.Balance()
	if float64(max) > mean*4/3+1 {
		t.Fatalf("LPT bound violated: max %d vs mean %.1f", max, mean)
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
	// Property: for arbitrary inputs, both strategies produce an exact
	// partition of all patterns.
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
		for _, s := range []Strategy{Cyclic, MPS} {
			a, err := Compute(s, counts, nRanks)
			if err != nil {
				return false
			}
			if a.Validate(counts) != nil {
				return false
			}
		}
		return true
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
	// Rank 0 gets patterns 0,2 of p0 (weights 1,3) under global cyclic.
	if parts0[0].Weights[0] != 1 || parts0[0].Weights[1] != 3 {
		t.Fatalf("rank 0 p0 weights = %v", parts0[0].Weights)
	}
	// MPS materialization shares the full partition object.
	am, err := Compute(MPS, []int{4, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	mparts, _ := am.Materialize(d, 0)
	if mparts[0] != d.Parts[0] && mparts[0] != d.Parts[1] {
		t.Fatal("MPS should reuse full partition objects")
	}
}
