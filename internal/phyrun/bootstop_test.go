package phyrun

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bootstrap"
	"repro/internal/tree"
)

// TestBootstopStatisticBitsRepeat computes the bootstop statistic 100
// times on one 30-replicate table and wants one bit pattern: the
// verdict is a pure function of the replicate prefix only if the
// statistic depends on no iteration order. The replicates repeat five
// random topologies on 12 taxa, so the pseudo-halves disagree on many
// splits by differing counts. (Summing the per-split float differences
// in a map's order gave three to four bit patterns in 100 calls here.)
func TestBootstopStatisticBitsRepeat(t *testing.T) {
	taxa := []string{"A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K", "L"}
	sc := bootstrap.NewSplitCounter()
	for i := 0; i < 30; i++ {
		rng := rand.New(rand.NewSource(int64(i % 5)))
		if _, err := sc.Add(tree.NewRandom(taxa, 1, rng)); err != nil {
			t.Fatal(err)
		}
	}
	c := BootstopConfig{}.withDefaults()
	want := c.statistic(sc, 30, 5)
	if want <= 0 || want >= 1 {
		t.Fatalf("statistic %g: the halves should disagree on some splits, not on all", want)
	}
	for i := 1; i < 100; i++ {
		if got := c.statistic(sc, 30, 5); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: statistic %x, first call %x", i, math.Float64bits(got), math.Float64bits(want))
		}
	}
}
