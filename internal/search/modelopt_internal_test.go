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
// one-probe-per-step loop relies on — and which logs the order of the
// SetShared and Evaluate calls it receives.
type probeEngine struct {
	stubEngine
	// opt[i] is partition i's optimal α; reject, when > 0, makes every
	// partition with α above it evaluate to NaN.
	opt    []float64
	reject float64
	alpha  []float64
	calls  []byte // 'S' = SetShared, 'E' = Evaluate
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

func (e *probeEngine) Evaluate(*traversal.Descriptor) []float64 {
	e.calls = append(e.calls, 'E')
	for i := range e.out {
		e.out[i] = e.score(i, e.alpha[i])
		if e.reject > 0 && e.alpha[i] > e.reject {
			e.out[i] = math.NaN()
		}
	}
	return e.out
}

// probeSearcher builds a Γ searcher over nPart partitions whose optima
// alternate between the two ends of the initial bracket [0.2, 5], so the
// golden-section brackets of neighbouring partitions shrink in opposite
// directions.
func probeSearcher(t *testing.T, nPart int) (*Searcher, *probeEngine) {
	t.Helper()
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
		opt:        make([]float64, nPart),
		alpha:      make([]float64, nPart),
	}
	for i := range eng.opt {
		eng.opt[i] = 0.3 + 0.01*float64(i)
		if i%2 == 1 {
			eng.opt[i] = 4 - 0.1*float64(i)
		}
	}
	s, err := NewSearcher(eng, d, Config{Het: model.Gamma, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s, eng
}

// goldenSectionReference is the textbook loop that evaluates BOTH
// interior points on every iteration, followed by the same
// keep-only-if-better rule: the optimizer the searcher's probe-reusing
// loop must match bit for bit when f is a pure function.
func goldenSectionReference(f func(float64) float64, cur, lo, hi float64) float64 {
	invPhi := (math.Sqrt(5) - 1) / 2
	a := math.Max(lo, cur*0.2)
	b := math.Min(hi, math.Max(cur*5, cur+1))
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	for it := 0; it < 12; it++ {
		if f(x1) >= f(x2) {
			b, x2 = x2, x1
			x1 = b - invPhi*(b-a)
		} else {
			a, x1 = x1, x2
			x2 = a + invPhi*(b-a)
		}
	}
	best := x2
	if f(x1) >= f(x2) {
		best = x1
	}
	if f(best) > f(cur) {
		return best
	}
	return cur
}

// TestOptimizeSharedScalarProbeCount pins the cost of optimizing one
// scalar — 2 + 12 + 1 probes and one closing full evaluation, each a
// SetShared immediately followed by one Evaluate — and that carrying a
// kept point's value instead of re-probing it (the closing best point
// included) lands on exactly the
// parameter the evaluate-both-points loop finds, for brackets shrinking
// either way.
func TestOptimizeSharedScalarProbeCount(t *testing.T) {
	for _, nPart := range []int{1, 8} {
		s, eng := probeSearcher(t, nPart)
		cols := []int{model.SharedAlpha}
		if err := s.optimizeSharedScalar(cols, model.MinAlpha, model.MaxAlpha); err != nil {
			t.Fatal(err)
		}
		const pairs = 2 + 12 + 1 + 1
		if got, want := string(eng.calls), strings.Repeat("SE", pairs); got != want {
			t.Errorf("%d partitions: engine saw %q, want %d SetShared→Evaluate pairs", nPart, got, pairs)
		}
		for i, row := range s.sharedRows {
			i := i
			want := goldenSectionReference(func(x float64) float64 { return eng.score(i, x) }, 1.0, model.MinAlpha, model.MaxAlpha)
			got := row[model.SharedAlpha]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%d partitions: partition %d α = %.17g, reference loop %.17g", nPart, i, got, want)
			}
			if math.Abs(math.Log(got/eng.opt[i])) > 0.05 {
				t.Errorf("%d partitions: partition %d α = %g, optimum %g", nPart, i, got, eng.opt[i])
			}
			if eng.alpha[i] != got {
				t.Errorf("%d partitions: engine left at α = %g for partition %d, searcher holds %g", nPart, eng.alpha[i], i, got)
			}
		}
	}
}

// TestRunFailsOnRejectedParameters: an engine that cannot evaluate a
// candidate (NaN likelihood) must fail the run with an error naming the
// partition — not crash the process, and not let the bracket update walk
// on through NaN comparisons.
func TestRunFailsOnRejectedParameters(t *testing.T) {
	s, eng := probeSearcher(t, 3)
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
