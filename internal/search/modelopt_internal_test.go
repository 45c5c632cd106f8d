package search

import (
	"math"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/msa"
	"repro/internal/seqgen"
	"repro/internal/traversal"
)

// probeEngine is a stubEngine whose per-partition likelihood is a pure
// function of that partition's α — the property of the real engines the
// held-value search relies on — which logs the order of the SetShared and
// Evaluate calls it receives and how many partitions each Evaluate
// covered, and which answers NaN in every slot a descriptor masks out: a
// search that read one would fail.
type probeEngine struct {
	stubEngine
	// opt[i] is partition i's optimal α; reject, when > 0, makes every
	// partition with α above it evaluate to NaN.
	opt    []float64
	reject float64
	alpha  []float64
	calls  []byte // 'S' = SetShared, 'E' = Evaluate
	widths []int  // partitions evaluated by each Evaluate
}

func (e *probeEngine) score(i int, alpha float64) float64 {
	d := math.Log(alpha) - math.Log(e.opt[i])
	return -1000*float64(i+1) - d*d
}

func (e *probeEngine) SetShared(params [][]float64) {
	e.calls = append(e.calls, 'S')
	for i, row := range params {
		e.alpha[i] = row[model.SharedAlpha]
	}
}

func (e *probeEngine) Evaluate(d *traversal.Descriptor) []float64 {
	e.calls = append(e.calls, 'E')
	width := 0
	for i := range e.out {
		if d.Active != nil && !d.Active[i] {
			e.out[i] = math.NaN()
			continue
		}
		width++
		e.out[i] = e.score(i, e.alpha[i])
		if e.reject > 0 && e.alpha[i] > e.reject {
			e.out[i] = math.NaN()
		}
	}
	e.widths = append(e.widths, width)
	return e.out
}

// probeSearcher builds a Γ searcher over partitions with the given optimal
// α values.
func probeSearcher(t *testing.T, subst model.SubstModel, opt ...float64) (*Searcher, *probeEngine) {
	t.Helper()
	nPart := len(opt)
	res, err := seqgen.Generate(seqgen.PartitionedGenes(8, nPart, 40, 4))
	if err != nil {
		t.Fatal(err)
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	eng := &probeEngine{
		stubEngine: stubEngine{nPart: nPart, out: make([]float64, nPart)},
		opt:        opt,
		alpha:      make([]float64, nPart),
	}
	s, err := NewSearcher(eng, d, Config{Het: model.Gamma, Subst: subst, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.pushShared() // Run's prelude: the engine starts from the searcher's matrix
	eng.calls = eng.calls[:0]
	return s, eng
}

// oppositeOptima are optima alternating between the two ends of the
// initial bracket [0.2, 5], so the brackets of neighbouring partitions
// shrink in opposite directions and at different speeds.
func oppositeOptima(nPart int) []float64 {
	opt := make([]float64, nPart)
	for i := range opt {
		opt[i] = 0.3 + 0.01*float64(i)
		if i%2 == 1 {
			opt[i] = 4 - 0.1*float64(i)
		}
	}
	return opt
}

// serialSearch runs one partition's search alone, from α = 1, the way the
// numutil stepper is meant to be driven: propose, evaluate, report. It
// returns what the search accepts, the likelihood it holds for that, how
// many probes it took and whether the last probe was somewhere else than
// the accepted value (the engine then has to be moved back).
func serialSearch(f func(float64) float64) (x, lnL float64, probes int, settle bool) {
	var q scalarSearch
	q.start(math.Max(model.MinAlpha, 0.2), math.Min(model.MaxAlpha, 5), 1, f(1))
	last := 1.0
	for {
		u, ok := q.next()
		if !ok {
			break
		}
		q.report(f(u))
		last = u
		probes++
	}
	x, lnL = q.best()
	return x, lnL, probes, last != x
}

// TestLockstepSearchIsEachPartitionsOwnSearch pins the optimiser by an
// oracle that knows nothing of lockstep or masks: every partition's
// accepted value and held likelihood are, by bits, what its own search run
// alone finds. What lockstep and masks decide is cost, and that is pinned
// exactly too: one opening evaluation; then one SetShared→Evaluate pair
// per step of the longest search, each covering only the partitions still
// searching plus those being moved back to their accepted value; a
// closing pair only when some partition's last probe was not its best;
// never more than scalarMaxProbes pairs.
func TestLockstepSearchIsEachPartitionsOwnSearch(t *testing.T) {
	cases := map[string][]float64{
		"1 partition":                oppositeOptima(1),
		"8 partitions":               oppositeOptima(8),
		"optimum beyond the bracket": {100},
		"optimum at the start":       {1, 0.25},
	}
	sawSettle, sawNoSettle := false, false
	for name, opt := range cases {
		s, eng := probeSearcher(t, model.JC, opt...)
		if err := s.optimizeModel(); err != nil {
			t.Fatal(err)
		}
		pairs, evals, anySettle := 0, 0, false
		for i, row := range s.sharedRows {
			i := i
			x, lnL, probes, settle := serialSearch(func(a float64) float64 { return eng.score(i, a) })
			if probes > scalarMaxProbes-1 {
				t.Errorf("%s: partition %d searched for %d probes", name, i, probes)
			}
			evals += probes
			if settle {
				anySettle = true
				probes++
				evals++
			}
			if probes > pairs {
				pairs = probes
			}
			if got := row[model.SharedAlpha]; math.Float64bits(got) != math.Float64bits(x) {
				t.Errorf("%s: partition %d α = %.17g, its own search %.17g", name, i, got, x)
			}
			if math.Float64bits(s.perPart[i]) != math.Float64bits(lnL) {
				t.Errorf("%s: partition %d holds lnL %.17g, its own search %.17g", name, i, s.perPart[i], lnL)
			}
			if lnL != eng.score(i, x) {
				t.Errorf("%s: partition %d holds lnL %.17g for α = %g, which scores %.17g", name, i, lnL, x, eng.score(i, x))
			}
			if opt[i] >= 0.2 && opt[i] <= 5 && math.Abs(math.Log(x/opt[i])) > 0.05 {
				t.Errorf("%s: partition %d α = %g, optimum %g", name, i, x, opt[i])
			}
			if eng.alpha[i] != x {
				t.Errorf("%s: engine left at α = %g for partition %d, searcher holds %g", name, eng.alpha[i], i, x)
			}
		}
		if pairs > scalarMaxProbes {
			t.Errorf("%s: %d probes for one scalar, limit %d", name, pairs, scalarMaxProbes)
		}
		if got, want := string(eng.calls), "E"+strings.Repeat("SE", pairs); got != want {
			t.Errorf("%s: engine saw %q, want one opening evaluation and %d SetShared→Evaluate pairs", name, got, pairs)
		}
		got := 0
		for _, w := range eng.widths[1:] {
			got += w
		}
		if got != evals {
			t.Errorf("%s: probes covered %d partition evaluations, the searches alone need %d", name, got, evals)
		}
		if eng.widths[0] != len(opt) {
			t.Errorf("%s: opening evaluation covered %d of %d partitions", name, eng.widths[0], len(opt))
		}
		if s.lnL != sum(s.perPart) {
			t.Errorf("%s: lnL %v is not the sum of the held values %v", name, s.lnL, s.perPart)
		}
		if evals == pairs*len(opt) && len(opt) > 1 {
			t.Errorf("%s: every probe was full width", name)
		}
		sawSettle = sawSettle || anySettle
		sawNoSettle = sawNoSettle || !anySettle
	}
	if !sawSettle || !sawNoSettle {
		t.Errorf("cases with a closing evaluation: %v, without: %v; want both", sawSettle, sawNoSettle)
	}
}

// TestModelRoundOpensOnce: under GTR+Γ a round searches six scalars and
// pays one evaluation that is not a probe, the opening one; each scalar
// starts from the values the one before it ended with.
func TestModelRoundOpensOnce(t *testing.T) {
	s, eng := probeSearcher(t, model.GTR, oppositeOptima(8)...)
	for round := 0; round < 2; round++ {
		eng.calls = eng.calls[:0]
		if err := s.optimizeModel(); err != nil {
			t.Fatal(err)
		}
		log := string(eng.calls)
		if !strings.HasPrefix(log, "E") || strings.ReplaceAll(log[1:], "SE", "") != "" {
			t.Errorf("round %d: engine saw %q, want one opening evaluation, then SetShared→Evaluate pairs only", round, log)
		}
		if pairs := strings.Count(log, "SE"); pairs > 6*scalarMaxProbes {
			t.Errorf("round %d: %d probes for 6 scalars", round, pairs)
		}
	}
	for i, row := range s.sharedRows {
		if math.Abs(math.Log(row[model.SharedAlpha]/eng.opt[i])) > 0.01 {
			t.Errorf("partition %d: α = %g after two rounds, optimum %g", i, row[model.SharedAlpha], eng.opt[i])
		}
		if want := eng.score(i, row[model.SharedAlpha]); s.perPart[i] != want {
			t.Errorf("partition %d: holds lnL %.17g, its parameters score %.17g", i, s.perPart[i], want)
		}
	}
}

// TestRunFailsOnRejectedParameters: an engine that cannot evaluate a
// candidate (NaN likelihood in a slot the probe covers) must fail the run
// with an error naming the partition — not crash the process, and not let
// the bracket update walk on through NaN comparisons.
func TestRunFailsOnRejectedParameters(t *testing.T) {
	s, eng := probeSearcher(t, model.GTR, oppositeOptima(3)...)
	eng.reject = 2.5
	res, err := s.Run()
	if err == nil {
		t.Fatalf("run succeeded with lnL %v; want an error", res.LnL)
	}
	if !strings.Contains(err.Error(), "partition") || !strings.Contains(err.Error(), "NaN") {
		t.Errorf("error %q does not name the partition and the NaN", err)
	}
	for i, row := range s.sharedRows {
		if row[model.SharedAlpha] != 1 {
			t.Errorf("partition %d: authoritative α = %g after a failed probe, want the restored 1", i, row[model.SharedAlpha])
		}
	}
}
