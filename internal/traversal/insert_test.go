package traversal

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/likelihood"
	"repro/internal/tree"
)

// realInsertPlans builds the insertion plan of every prune point of a
// few random trees, with per-class branch lengths made distinct, and
// hands each to f while its subtree is still pruned.
func realInsertPlans(t testing.TB, f func(tr *tree.Tree, ps *tree.PrunedSubtree, cands []*tree.Node, pl *InsertPlan)) {
	t.Helper()
	for _, classes := range []int{1, 3} {
		rng := rand.New(rand.NewSource(int64(7 + classes)))
		tr := tree.NewRandom(taxa(13), classes, rng)
		for _, e := range tr.Edges() {
			for c := 0; c < classes; c++ {
				e.SetLength(c, 0.01+rng.Float64())
			}
		}
		for v := 0; v < tr.NInner(); v++ {
			for _, p := range tr.InnerRing(v).Ring() {
				ps, err := tr.Prune(p)
				if err != nil {
					t.Fatal(err)
				}
				cands := ps.CandidateEdges(1, 4)
				if len(cands) > 0 {
					var pl InsertPlan
					pl.Build(tr, ps, cands, nil)
					f(tr, ps, cands, &pl)
				}
				if err := tr.Restore(ps); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestInsertPlanDescribesEveryRegraft pins the plan against the tree
// surgery it replaces: candidate i's pre-order step, far operand and
// half length are exactly the step a forced traversal of the tree
// regrafted into candidate i computes for the candidate's near end, the
// operands of the step it computes for the inserted vertex, and the
// branch lengths Regraft assigns.
func TestInsertPlanDescribesEveryRegraft(t *testing.T) {
	checked := 0
	realInsertPlans(t, func(tr *tree.Tree, ps *tree.PrunedSubtree, cands []*tree.Node, pl *InsertPlan) {
		p := ps.Root
		if pl.NCandidates() != len(cands) {
			t.Fatalf("plan has %d candidates for %d edges", pl.NCandidates(), len(cands))
		}
		for i, e := range cands {
			if err := tr.Regraft(ps, e); err != nil {
				t.Fatal(err)
			}
			clone := tr.Clone()
			if err := tr.RemoveRegraft(ps); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < tr.BLClasses; c++ {
				steps := Orient(clone, clone.Node(p.ID), c, true, nil)
				last := steps[len(steps)-1]
				if last.TA != pl.Half[c][i] || last.TB != pl.Half[c][i] {
					t.Fatalf("candidate %d class %d: Regraft splits into (%g, %g), plan says %g", i, c, last.TA, last.TB, pl.Half[c][i])
				}
				if got := clone.Node(p.ID).Length(c); got != pl.SubT[c] {
					t.Fatalf("class %d: subtree branch %g, plan says %g", c, got, pl.SubT[c])
				}
				// The inserted vertex combines the candidate's near end
				// (always inner) with its far end, in that order.
				far := pl.Far[i]
				if last.A.Kind != likelihood.Inner || last.B != far {
					t.Fatalf("candidate %d: inserted vertex combines %+v and %+v, plan's far end is %+v", i, last.A, last.B, far)
				}
				// The near end itself: the forced traversal's step for e's
				// vertex against the plan's pre-order step.
				var near *likelihood.Step
				for k := range steps {
					if steps[k].Dst == last.A {
						near = &steps[k]
					}
				}
				pre := pl.Pre[c][i]
				if near == nil || near.TA != pre.TA || near.TB != pre.TB ||
					(near.A.Kind == likelihood.Tip) != (pre.A.Kind == likelihood.Tip) || (near.B.Kind == likelihood.Tip) != (pre.B.Kind == likelihood.Tip) {
					t.Fatalf("candidate %d class %d: forced traversal computes the near end as %+v, plan as %+v", i, c, near, pre)
				}
				if want := likelihood.OuterAt(e.Back.VertexID); pre.Dst != want {
					t.Fatalf("candidate %d: near vector goes to outer slot %d, the far-end vertex is %d", i, pre.Dst, want)
				}
			}
			checked++
		}
	})
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

// TestInsertPlanEncodeDecodeRoundTrip pins the wire format: decoding an
// encoded plan reproduces it exactly, into a plan that held a different
// one before, and the frame is exactly WireSize bytes — the figure the
// single-rank fork-join master meters without encoding.
func TestInsertPlanEncodeDecodeRoundTrip(t *testing.T) {
	var got InsertPlan
	realInsertPlans(t, func(_ *tree.Tree, _ *tree.PrunedSubtree, _ []*tree.Node, pl *InsertPlan) {
		buf := pl.Encode()
		if len(buf) != pl.WireSize() {
			t.Fatalf("encoded %d bytes, WireSize says %d", len(buf), pl.WireSize())
		}
		if err := got.Decode(buf); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&got, pl) {
			t.Fatalf("decoded plan differs from original:\n got %+v\nwant %+v", &got, pl)
		}
		if err := got.Decode(buf[:len(buf)-3]); err == nil {
			t.Error("truncated frame decoded without error")
		}
		if err := got.Decode(append(append([]byte(nil), buf...), 0)); err == nil {
			t.Error("padded frame decoded without error")
		}
	})
}

// TestInsertPlanValidateBoundsEverySlot: a real plan passes for its own
// tree; pushing any one address past the tree — as a corrupted frame that
// still decodes would — is refused, so a fork-join worker never indexes
// or grows a kernel buffer from it.
func TestInsertPlanValidateBoundsEverySlot(t *testing.T) {
	realInsertPlans(t, func(tr *tree.Tree, _ *tree.PrunedSubtree, _ []*tree.Node, pl *InsertPlan) {
		n := tr.NTaxa()
		if err := pl.Validate(n); err != nil {
			t.Fatal(err)
		}
		if err := pl.Validate(n - 1); err == nil {
			t.Fatal("plan accepted for a smaller tree than it was built on")
		}
		last := len(pl.Far) - 1
		corrupt := map[string]*int32{
			"subtree":       &pl.Sub.Idx,
			"far operand":   &pl.Far[last].Idx,
			"pre-order dst": &pl.Pre[0][last].Dst.Idx,
			"pre-order A":   &pl.Pre[0][last].A.Idx,
			"pre-order B":   &pl.Pre[0][0].B.Idx,
		}
		if len(pl.Post[0]) > 0 {
			corrupt["post-order dst"] = &pl.Post[0][0].Dst.Idx
			corrupt["post-order A"] = &pl.Post[0][0].A.Idx
		}
		for what, field := range corrupt {
			for _, v := range []int32{-1, int32(2*n - 2), 1 << 30} {
				saved := *field
				*field = v
				if err := pl.Validate(n); err == nil {
					t.Errorf("%s = %d accepted on a %d-taxon tree", what, v, n)
				}
				*field = saved
			}
		}
	})
}

// FuzzDecodeInsertPlan: the decoder reads bytes a master sent. Whatever
// they are, it returns a plan that re-encodes to the same bytes or an
// error — it never panics and never sizes anything from a header the
// frame's length does not back — and Validate then answers for any tree
// size without panicking either.
func FuzzDecodeInsertPlan(f *testing.F) {
	n := 0
	realInsertPlans(f, func(_ *tree.Tree, _ *tree.PrunedSubtree, _ []*tree.Node, pl *InsertPlan) {
		if n++; n%9 == 0 {
			f.Add(pl.Encode())
		}
	})
	f.Add([]byte{})
	f.Add(make([]byte, 20)) // one byte short of a header: three counts and the subtree ref
	f.Add(make([]byte, 21)) // a whole header, of zero classes
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, buf []byte) {
		var pl InsertPlan
		if err := pl.Decode(buf); err != nil {
			return
		}
		if again := pl.Encode(); !reflect.DeepEqual(again, buf) {
			t.Fatalf("decoded plan re-encodes to %d bytes that differ from the %d decoded", len(again), len(buf))
		}
		_ = pl.Validate(13)
	})
}
