package search

import (
	"testing"

	"repro/internal/model"
	"repro/internal/msa"
	"repro/internal/seqgen"
	"repro/internal/traversal"
)

// stubEngine is a minimal Engine that — like enginecore.Local — returns
// internal scratch slices that are only valid until its next call. The
// white-box tests below pin that the Searcher honors that contract and
// that its optimization loops reuse searcher-owned buffers. Its PerBranch
// is the zero value, which panics if called: the search never calls it.
type stubEngine struct {
	PerBranch
	nPart int
	out   []float64
	grad  []float64
	ins   []float64
}

func (e *stubEngine) NPartitions() int               { return e.nPart }
func (e *stubEngine) BLClasses() int                 { return 1 }
func (e *stubEngine) Traverse(*traversal.Descriptor) {}

func (e *stubEngine) Evaluate(*traversal.Descriptor) []float64 {
	for i := range e.out {
		e.out[i] = -100 - float64(i)
	}
	return e.out
}

func (e *stubEngine) AllBranchDerivatives(plan *traversal.GradPlan) []float64 {
	// A concave score with its optimum at t = 0.1 on every branch, so
	// that Newton converges in one step and the loop ends on the
	// tolerance check, in the engine result layout (d1 block then d2
	// block) — and, like the real engines, returned from reused internal
	// scratch.
	nB := plan.NBranches()
	if cap(e.grad) < 2*nB {
		e.grad = make([]float64, 2*nB)
	}
	vec := e.grad[:2*nB]
	for b := 0; b < nB; b++ {
		vec[b] = -(plan.T[0][b] - 0.1)
		vec[nB+b] = -1
	}
	return vec
}

func (e *stubEngine) ScoreInsertions(plan *traversal.InsertPlan) []float64 {
	// Every insertion far below any current score: no prune point
	// verifies anything. Reused scratch, like the real engines.
	n := plan.NCandidates() * e.nPart
	if cap(e.ins) < n {
		e.ins = make([]float64, n)
	}
	vec := e.ins[:n]
	for i := range vec {
		vec[i] = -1e6
	}
	return vec
}

func (e *stubEngine) SetShared([][]float64) {}
func (e *stubEngine) OptimizeSiteRates(*traversal.Descriptor) []float64 {
	return []float64{1}
}
func (e *stubEngine) Close() {}

func stubSearcher(t *testing.T) (*Searcher, *stubEngine) {
	t.Helper()
	res, err := seqgen.Generate(seqgen.PartitionedGenes(8, 2, 40, 4))
	if err != nil {
		t.Fatal(err)
	}
	d, err := msa.Compress(res.Alignment, res.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	eng := &stubEngine{nPart: d.NPartitions(), out: make([]float64, d.NPartitions())}
	s, err := NewSearcher(eng, d, Config{Het: model.Gamma, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s, eng
}

// TestEvaluateFullCopiesEngineResult pins the engine result-lifetime
// contract from the Searcher side: Evaluate returns a slice the engine
// will overwrite on its next call, so the Searcher must keep its own
// copy — and must keep reusing the same copy buffer instead of
// reallocating per evaluation.
func TestEvaluateFullCopiesEngineResult(t *testing.T) {
	s, eng := stubSearcher(t)
	s.evaluateFull()
	want := append([]float64(nil), s.perPart...)

	// Clobber the engine's scratch, as its next call would.
	for i := range eng.out {
		eng.out[i] = 12345
	}
	for i := range want {
		if s.perPart[i] != want[i] {
			t.Fatalf("perPart aliases the engine scratch: %v", s.perPart)
		}
	}

	first := &s.perPart[0]
	s.evaluateFull()
	if &s.perPart[0] != first {
		t.Error("perPart buffer reallocated on a steady-state evaluation")
	}
}

// TestUpdateBranchReusesScratch pins the searcher-owned Newton scratch:
// repeated updateBranch calls keep the same backing arrays — the Newton
// loop's, which the smoothing sweeps share, and the one-edge plan's — and
// allocate nothing: the descriptor they root on the edge is rebuilt in
// the searcher's own.
func TestUpdateBranchReusesScratch(t *testing.T) {
	s, _ := stubSearcher(t)
	s.smoothSweep()
	p := s.Tree.Tip(0)
	s.updateBranch(p)
	lo0, hi0, t0 := &s.gradLo[0], &s.gradHi[0], &s.edgePlan.T[0][0]
	for i := 0; i < 5; i++ {
		s.updateBranch(p)
		s.smoothSweep()
	}
	if &s.gradLo[0] != lo0 || &s.gradHi[0] != hi0 || &s.edgePlan.T[0][0] != t0 {
		t.Error("Newton scratch reallocated across updateBranch calls")
	}
	if got := testing.AllocsPerRun(20, func() { s.updateBranch(p) }); got != 0 {
		t.Errorf("updateBranch allocates %v times", got)
	}
	// The stub's optimum is 0.1; convergence proves the scratch-based
	// loop still optimizes correctly.
	if got := p.Length(0); got < 0.09 || got > 0.11 {
		t.Errorf("branch length %g, want ~0.1", got)
	}
}

// TestGrowSemantics pins the helper the scratch paths rely on.
func TestGrowSemantics(t *testing.T) {
	var buf []float64
	a := grow(&buf, 4)
	if len(a) != 4 || cap(buf) < 4 {
		t.Fatalf("grow(4): len %d cap %d", len(a), cap(buf))
	}
	a[0] = 7
	b := grow(&buf, 2)
	if &b[0] != &a[0] {
		t.Error("grow shrank by reallocating")
	}
	c := grow(&buf, 4)
	if &c[0] != &a[0] {
		t.Error("grow regrew within capacity by reallocating")
	}
}

// TestProbeSharedAllocatesNothing pins the model-parameter probe path:
// pushing the matrix (reused row headers over one flat buffer), stamping
// the round's descriptor with the probe's mask and reading the engine's
// result allocate nothing — the descriptor is built once per round, not
// per probe.
func TestProbeSharedAllocatesNothing(t *testing.T) {
	s, _ := stubSearcher(t)
	if err := s.optimizeModel(); err != nil { // builds the round's descriptor
		t.Fatal(err)
	}
	cols := []int{model.SharedAlpha}
	mask := make([]bool, s.nPart)
	mask[0] = true
	probe := func() {
		if _, err := s.probeShared(cols, mask, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(20, probe); got != 0 {
		t.Errorf("probeShared allocates %v times per call", got)
	}
	round := func() {
		if err := s.optimizeSharedScalar(cols, model.MinAlpha, model.MaxAlpha); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(5, round); got != 0 {
		t.Errorf("a scalar search allocates %v times", got)
	}
	first := &s.sharedRows[0][0]
	s.pushShared()
	if &s.sharedRows[0][0] != first || &s.shared[0] != first {
		t.Error("pushShared replaced the shared-parameter buffer")
	}
	// Snapshot callers keep their own copy.
	snap := s.Snapshot(1)
	snap.Shared[0][0] = 99
	if s.shared[0] == 99 {
		t.Error("Snapshot aliases the searcher's shared matrix")
	}
}

// TestRejectedPrunePointAllocatesNothing pins the SPR path's share of
// the allocation-free guarantee: pruning, enumerating the candidates,
// building their insertion plan, reading the scores and restoring the
// subtree reuse searcher-owned buffers, so a warm prune point that
// verifies nothing allocates nothing on the search side.
func TestRejectedPrunePointAllocatesNothing(t *testing.T) {
	s, _ := stubSearcher(t)
	cur := s.evaluateFull()
	sweep := func() {
		for v := 0; v < s.Tree.NInner(); v++ {
			p := s.Tree.InnerRing(v)
			for k := 0; k < 3; k, p = k+1, p.Next {
				improved, _, err := s.tryPrunePoint(p, 5, cur)
				if err != nil || improved {
					t.Fatalf("prune point %d: improved %v, err %v", p.ID, improved, err)
				}
			}
		}
	}
	sweep() // size the buffers
	if got := testing.AllocsPerRun(5, sweep); got != 0 {
		t.Errorf("a sweep of rejected prune points allocates %v times", got)
	}
	if err := s.Tree.Check(); err != nil {
		t.Fatal(err)
	}
}
