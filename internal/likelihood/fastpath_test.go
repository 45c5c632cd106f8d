package likelihood_test

import (
	"math"
	"testing"

	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/threadpool"
	"repro/internal/traversal"
)

// fastFixture rebuilds the deterministic threaded fixture and switches
// the tip fast paths and the P-matrix cache on or off together.
func fastFixture(t *testing.T, het model.Heterogeneity, threads int, fast bool) (*fixture, *threadpool.Pool) {
	t.Helper()
	f, pool := threadedFixture(t, het, threads)
	f.kern.SetFastPath(fast)
	f.kern.SetPCache(fast)
	return f, pool
}

// traceKernelFull is traceKernel plus an evaluation in the q-tip
// orientation (traceKernel's virtual root has the tip on the p side, so
// the tip-specialized evaluate path only fires on the reversed call).
func traceKernelFull(f *fixture) (kernelTrace, uint64) {
	tr := traceKernel(f)
	p := f.tree.Tip(0)
	rev := f.kern.Evaluate(traversal.Ref(f.tree, p.Back), traversal.Ref(f.tree, p), p.Length(0))
	return tr, math.Float64bits(rev)
}

func compareTraces(t *testing.T, label string, got, want kernelTrace, gotRev, wantRev uint64) {
	t.Helper()
	if got.lnL != want.lnL {
		t.Errorf("%s: lnL bits %x != generic %x (%g vs %g)", label, got.lnL, want.lnL,
			math.Float64frombits(got.lnL), math.Float64frombits(want.lnL))
	}
	if gotRev != wantRev {
		t.Errorf("%s: reversed-eval bits %x != generic %x", label, gotRev, wantRev)
	}
	if got.derivs != want.derivs {
		t.Errorf("%s: derivative bits diverged: %x vs %x", label, got.derivs, want.derivs)
	}
	for s := range want.digests {
		if got.digests[s] != want.digests[s] {
			t.Errorf("%s: CLV slot %d digest %x != generic %x", label, s, got.digests[s], want.digests[s])
		}
	}
}

// TestFastPathBitIdenticalToGeneric is the fast-path determinism
// contract (docs/PERFORMANCE.md): with tip-specialized kernels and the
// P-matrix cache enabled, every observable kernel output — log
// likelihood, both derivatives, and every inner CLV byte — matches the
// generic path exactly, for both rate models and across thread counts.
func TestFastPathBitIdenticalToGeneric(t *testing.T) {
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		for _, threads := range []int{0, 1, 4} {
			gen, genPool := fastFixture(t, het, threads, false)
			want, wantRev := traceKernelFull(gen)
			if fp := gen.kern.FastPath(); fp.FastOps() != 0 || fp.PCacheHits+fp.PCacheMisses != 0 {
				t.Fatalf("%v T=%d: disabled fast path still dispatched: %+v", het, threads, fp)
			}
			genPool.Close()

			f, pool := fastFixture(t, het, threads, true)
			got, gotRev := traceKernelFull(f)
			compareTraces(t, het.String()+" fast", got, want, gotRev, wantRev)

			// The fixture tree has tip-tip, tip-inner, and inner-inner
			// vertices, so every specialized and generic dispatch class
			// must have fired.
			fp := f.kern.FastPath()
			if fp.NewviewTipTip == 0 || fp.NewviewTipInner == 0 || fp.NewviewInner == 0 {
				t.Errorf("%v T=%d: newview dispatch coverage: %+v", het, threads, fp)
			}
			if fp.EvaluateTip == 0 || fp.PrepareTip == 0 {
				t.Errorf("%v T=%d: tip evaluate/prepare never fired: %+v", het, threads, fp)
			}
			if fp.PCacheMisses == 0 {
				t.Errorf("%v T=%d: P-matrix cache never consulted: %+v", het, threads, fp)
			}
			pool.Close()
		}
	}
}

// TestPCacheHitsBitIdentical replays the identical call sequence twice
// on one kernel: the second pass is served from the P-matrix cache and
// must reproduce the first pass bit-for-bit, and must actually hit.
func TestPCacheHitsBitIdentical(t *testing.T) {
	for _, het := range []model.Heterogeneity{model.Gamma, model.PSR} {
		f, pool := fastFixture(t, het, 2, true)
		first, firstRev := traceKernelFull(f)
		missesAfterFirst := f.kern.FastPath().PCacheMisses
		second, secondRev := traceKernelFull(f)
		compareTraces(t, het.String()+" cached replay", second, first, secondRev, firstRev)
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
	f, _ := fastFixture(t, model.Gamma, 0, true)
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
	f, _ := fastFixture(t, model.Gamma, 0, true)
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
