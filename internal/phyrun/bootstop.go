package phyrun

import (
	"fmt"
	"math/rand"

	"repro/internal/bootstrap"
)

// BootstopConfig tunes adaptive bootstopping (the autoMRE-style
// frequency criterion): after every CheckEvery completed replicates the
// finished set is repeatedly split into two pseudo-halves by seeded
// permutations, and the campaign stops once the halves' split-frequency
// vectors agree to within Cutoff on average. Checks run on the replicate
// *index prefix* — checkpoint n is evaluated only when replicates
// 0..n-1 have all finished — so the stop decision is a pure function of
// the campaign seed, independent of completion order or concurrency.
type BootstopConfig struct {
	// CheckEvery is the checkpoint spacing in replicates (default 10).
	CheckEvery int `json:"check_every,omitempty"`
	// Cutoff is the convergence threshold on the mean absolute
	// split-frequency difference between pseudo-halves, averaged over
	// the permutations (default 0.03).
	Cutoff float64 `json:"cutoff,omitempty"`
	// Permutations is how many pseudo-half splits each checkpoint
	// averages over (default 100).
	Permutations int `json:"permutations,omitempty"`
}

func (c *BootstopConfig) validate() error {
	if c.CheckEvery < 0 || c.Cutoff < 0 || c.Permutations < 0 {
		return fmt.Errorf("negative bootstop parameters")
	}
	return nil
}

// withDefaults returns the config with zero fields filled in.
func (c BootstopConfig) withDefaults() BootstopConfig {
	if c.CheckEvery == 0 {
		c.CheckEvery = 10
	}
	if c.Cutoff == 0 {
		c.Cutoff = 0.03
	}
	if c.Permutations == 0 {
		c.Permutations = 100
	}
	return c
}

// converged evaluates the bootstop criterion on the first n replicates
// accumulated in the counter. The permutations derive from the campaign
// seed and (n, permutation index) alone, so the verdict is deterministic
// for a given replicate prefix.
func (c BootstopConfig) converged(sc *bootstrap.SplitCounter, n int, campaignSeed int64) bool {
	if n < 2 {
		return false // a pseudo-half needs at least one replicate
	}
	return c.statistic(sc, n, campaignSeed) <= c.Cutoff
}

// statistic is the pseudo-halves' mean absolute split-frequency
// difference over the union of splits either half holds, averaged over
// the permutations. Each permutation counts its halves by split id and
// sums |c1 − c2| as an integer, then divides once, so its term is exact
// up to that one rounding; the terms are added in permutation order, and
// the value depends on no map's iteration order.
func (c BootstopConfig) statistic(sc *bootstrap.SplitCounter, n int, campaignSeed int64) float64 {
	half := n / 2
	checkSeed := DeriveSeed(campaignSeed, streamBootstopPerm, n)
	c1 := make([]int, sc.Splits())
	c2 := make([]int, sc.Splits())
	var total float64
	for p := 0; p < c.Permutations; p++ {
		rng := rand.New(rand.NewSource(DeriveSeed(checkSeed, streamBootstopPerm, p)))
		idx := rng.Perm(n)
		clear(c1)
		clear(c2)
		// Odd n: the leftover replicate joins neither half, keeping the
		// halves comparable.
		for i, r := range idx[:2*half] {
			h := c1
			if i >= half {
				h = c2
			}
			for _, id := range sc.TreeSplits(r) {
				h[id]++
			}
		}
		sum, union := 0, 0
		for id := range c1 {
			if c1[id]+c2[id] > 0 {
				union++
				sum += max(c1[id]-c2[id], c2[id]-c1[id])
			}
		}
		if union == 0 {
			continue // star trees only; nothing to disagree on
		}
		total += float64(sum) / float64(half*union)
	}
	return total / float64(c.Permutations)
}
