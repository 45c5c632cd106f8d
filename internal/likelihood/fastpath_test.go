package likelihood_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/likelihood"
	"repro/internal/model"
)

// stager stages kernel calls on a kernel and records the operand shapes
// of every call ("newview tip inner", …). The one tipsAsInner returns
// also names, wherever a call names a tip, the inner slot holding that
// tip — the reference of the tip workers.
type stager struct {
	*likelihood.Kernel
	tipSlot int32 // inner slot of taxon 0; < 0: tips stay tips
	seen    map[string]bool
}

// passThrough is the stager that hands every call to f's kernel as is.
func passThrough(f *fixture) stager {
	return stager{Kernel: f.kern.Kernel, tipSlot: -1, seen: map[string]bool{}}
}

// tipsAsInner builds the reference of f's kernel: a kernel over the same
// slice and parameters with one more inner slot per taxon, NInner()+taxon,
// loaded with that taxon's tip (LoadTipAsInner), and the stager that sends
// every tip operand there. Every call then runs the inner-inner workers,
// whose expressions fill the tip tables (fastpath.go), so no tip worker's
// bit may differ from it.
func tipsAsInner(t *testing.T, f *fixture) stager {
	t.Helper()
	nInner := f.tree.NInner()
	k, err := likelihood.NewNow(f.pd, f.par, nInner+len(f.pd.Tips))
	if err != nil {
		t.Fatal(err)
	}
	for taxon := range f.pd.Tips {
		k.LoadTipAsInner(nInner+taxon, taxon)
	}
	return stager{Kernel: k.Kernel, tipSlot: int32(nInner), seen: map[string]bool{}}
}

func (s stager) ref(r likelihood.Ref) likelihood.Ref {
	if r.Kind == likelihood.Tip && s.tipSlot >= 0 {
		return likelihood.InnerAt(int(s.tipSlot + r.Idx))
	}
	return r
}

func isTip(r likelihood.Ref) bool { return r.Kind == likelihood.Tip }

// note records the shape of a call as the kernel receives it, by whether
// each operand is a tip.
func (s stager) note(call string, tips ...bool) {
	for _, tip := range tips {
		if tip {
			call += " tip"
		} else {
			call += " inner"
		}
	}
	s.seen[call] = true
}

func (s stager) Newview(st likelihood.Step) {
	st.A, st.B = s.ref(st.A), s.ref(st.B)
	s.note("newview", isTip(st.A), isTip(st.B))
	s.Kernel.Newview(st)
}

func (s stager) Traverse(steps []likelihood.Step) {
	for _, st := range steps {
		s.Newview(st)
	}
}

func (s stager) Evaluate(p, q likelihood.Ref, t float64) {
	p, q = s.ref(p), s.ref(q)
	s.note("evaluate", isTip(p), isTip(q))
	s.Kernel.Evaluate(p, q, t)
}

func (s stager) Contract(slot int, p, q likelihood.Ref) {
	p, q = s.ref(p), s.ref(q)
	s.note("contract", isTip(p), isTip(q))
	s.Kernel.Contract(slot, p, q)
}

func (s stager) PrepareInsertion(sub likelihood.Ref, t float64) {
	sub = s.ref(sub)
	s.note("insertion table", isTip(sub))
	s.Kernel.PrepareInsertion(sub, t)
}

func (s stager) ScoreInsertion(near, far likelihood.Ref, half float64) {
	near, far = s.ref(near), s.ref(far)
	s.note("insertion score", isTip(near), isTip(far))
	s.Kernel.ScoreInsertion(near, far, half)
}

// tipShapes are the call shapes that reach a tip worker: each pairs a tip
// operand with the kind of operand it meets.
var tipShapes = []string{
	"newview tip tip", "newview tip inner", "newview inner tip",
	"evaluate tip tip", "evaluate tip inner", "evaluate inner tip",
	"contract tip tip", "contract tip inner", "contract inner tip",
	"insertion table tip", "insertion score inner tip",
}

// checkTipReference fails unless the trace on fast reached every tip
// worker and the reference handed the kernel no tip operand.
func checkTipReference(t *testing.T, label string, fast, ref stager) {
	t.Helper()
	for _, shape := range tipShapes {
		if !fast.seen[shape] {
			t.Errorf("%s: no %q call in the trace", label, shape)
		}
	}
	for shape := range ref.seen {
		if strings.Contains(shape, "tip") {
			t.Errorf("%s: the reference made a %q call", label, shape)
		}
	}
}

// TestFastPathBitIdenticalToGeneric is the fast-path determinism
// contract (docs/PERFORMANCE.md §1): with every tip operand read through
// the tip, pair and prep tables and the P-matrix cache, every observable
// kernel output — log likelihoods, derivatives, gradients, insertion
// scores and every inner CLV byte — has the bits the inner-inner workers
// give with each tip loaded into an inner slot, for both rate models on a
// multi-block slice, with no pool and with 1 and 4 threads — with the
// vector lanes on where the CPU has them, and reaching them.
func TestFastPathBitIdenticalToGeneric(t *testing.T) {
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		for _, threads := range []int{0, 1, 4} {
			label := fmt.Sprintf("%v T=%d", het, threads)
			f, pool := threadedFixture(t, het, threads)
			flush := func(k *likelihood.Kernel) { k.Flush(pool) }
			ref, fast := tipsAsInner(t, f), passThrough(f)
			want := programTrace(t, f.tree, ref, flush)
			got := programTrace(t, f.tree, fast, flush)
			pool.Close()
			sameBits(t, label+": tip workers vs tips as inner operands", got, want)
			checkTipReference(t, label, fast, ref)
			checkLanesReached(t, label, het, likelihood.HasLanes(), fast.FastPath())
		}
	}
}

// TestPCacheHitsBitIdentical replays the identical call sequence twice
// on one kernel: the second pass is served from the P-matrix cache and
// must reproduce the first pass bit-for-bit, and must actually hit.
func TestPCacheHitsBitIdentical(t *testing.T) {
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		f, pool := threadedFixture(t, het, 2)
		flush := func(k *likelihood.Kernel) { k.Flush(pool) }
		first := programTrace(t, f.tree, passThrough(f), flush)
		missesAfterFirst := f.kern.FastPath().PCacheMisses
		second := programTrace(t, f.tree, passThrough(f), flush)
		sameBits(t, het.String()+" cached replay", second, first)
		fp := f.kern.FastPath()
		if fp.PCacheHits == 0 {
			t.Errorf("%v: replay produced no cache hits: %+v", het, fp)
		}
		if fp.PCacheMisses != missesAfterFirst {
			t.Errorf("%v: replay missed the cache: %d -> %d misses", het, missesAfterFirst, fp.PCacheMisses)
		}
		pool.Close()
	}
}

// TestPCacheInvalidatedByModelChange rebuilds the model parameters
// in-place (bumping the generation) and checks the cache resets instead
// of serving stale matrices: results must match a fresh kernel built
// directly with the new parameters.
func TestPCacheInvalidatedByModelChange(t *testing.T) {
	f, _ := threadedFixture(t, model.Gamma, 0)
	f.evalAt(f.tree.Tip(0))
	if f.kern.FastPath().PCacheMisses == 0 {
		t.Fatal("warm-up populated no cache entries")
	}

	f.par.Alpha *= 1.5
	if err := f.par.Rebuild(); err != nil {
		t.Fatal(err)
	}
	f.kern.InvalidateAll()
	got := math.Float64bits(f.evalAt(f.tree.Tip(0)))

	fresh, err := likelihood.NewNow(f.pd, f.par, f.tree.NInner())
	if err != nil {
		t.Fatal(err)
	}
	f2 := &fixture{tree: f.tree, pd: f.pd, par: f.par, kern: fresh}
	want := math.Float64bits(f2.evalAt(f.tree.Tip(0)))
	if got != want {
		t.Errorf("post-rebuild lnL bits %x != fresh kernel %x", got, want)
	}
}

// TestPCacheSurvivesNoOpParameterPush: re-applying the parameter values
// a kernel already holds (what SetShared does for every partition a
// probe did not move) re-derives nothing, so the P-matrix cache keeps
// serving — no reset, no new miss — while a real change still resets it.
func TestPCacheSurvivesNoOpParameterPush(t *testing.T) {
	f, _ := threadedFixture(t, model.Gamma, 0)
	want := math.Float64bits(f.evalAt(f.tree.Tip(0)))
	warm := f.kern.FastPath()

	if err := f.par.DecodeShared(f.par.EncodeShared()); err != nil {
		t.Fatal(err)
	}
	got := math.Float64bits(f.evalAt(f.tree.Tip(0)))
	fp := f.kern.FastPath()
	if got != want {
		t.Errorf("replay after a no-op push: lnL bits %x != %x", got, want)
	}
	if fp.PCacheResets != warm.PCacheResets || fp.PCacheMisses != warm.PCacheMisses || fp.PCacheHits == warm.PCacheHits {
		t.Errorf("no-op push disturbed the P-matrix cache: %+v -> %+v", warm, fp)
	}

	shared := f.par.EncodeShared()
	shared[model.SharedAlpha] *= 1.25
	if err := f.par.DecodeShared(shared); err != nil {
		t.Fatal(err)
	}
	f.evalAt(f.tree.Tip(0))
	if after := f.kern.FastPath(); after.PCacheResets != fp.PCacheResets+1 {
		t.Errorf("α change reset the cache %d times, want 1", after.PCacheResets-fp.PCacheResets)
	}
}
