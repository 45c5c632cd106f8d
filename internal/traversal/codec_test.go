package traversal

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/likelihood"
	"repro/internal/tree"
)

// operandAt is one operand position of an encoded frame: the operand the
// frame holds there, the offset of its kind byte and whether only a
// post-order operand (a tip or a CLV slot) belongs there.
type operandAt struct {
	name string
	ref  likelihood.Ref
	off  int
	post bool
}

// TestEveryOperandPositionRefusesForeignKinds covers every operand
// position of all three frames — descriptor, gradient plan, insertion
// plan — through the one operand codec: a kind byte of 3 or more fails
// Decode anywhere; an outer vector fails Decode or Validate where a
// post-order operand belongs (descriptor P, Q, A, B; insertion post-order
// A, B) and passes both everywhere else.
func TestEveryOperandPositionRefusesForeignKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := tree.NewRandom(taxa(9), 1, rng)
	n := tr.NTaxa()

	d := Build(tr, tr.InnerRing(2), true)
	dPos := []operandAt{{"P", d.P, 8, true}, {"Q", d.Q, 17, true}}
	for i, s := range d.Steps[0] {
		at := 26 + 8 + 22*i
		dPos = append(dPos, operandAt{fmt.Sprintf("step %d A", i), s.A, at + 4, true},
			operandAt{fmt.Sprintf("step %d B", i), s.B, at + 13, true})
	}

	g, _ := BuildGradient(tr, nil)
	var gPos []operandAt
	for i, s := range g.Pre[0] {
		at := 13 + 22*i
		gPos = append(gPos, operandAt{fmt.Sprintf("step %d A", i), s.A, at + 4, false},
			operandAt{fmt.Sprintf("step %d B", i), s.B, at + 13, false})
	}
	for b, e := range g.Edges {
		at := 13 + 22*len(g.Pre[0]) + 18*b
		gPos = append(gPos, operandAt{fmt.Sprintf("edge %d P", b), e.P, at, false},
			operandAt{fmt.Sprintf("edge %d Q", b), e.Q, at + 9, false})
	}

	ps, err := tr.Prune(tr.InnerRing(3))
	if err != nil {
		t.Fatal(err)
	}
	var ins InsertPlan
	ins.Build(tr, ps, ps.CandidateEdges(1, 4), allDirty(tr))
	if err := tr.Restore(ps); err != nil {
		t.Fatal(err)
	}
	iPos := []operandAt{{"subtree", ins.Sub, 12, false}}
	for i, s := range ins.Post[0] {
		at := 21 + 22*i
		iPos = append(iPos, operandAt{fmt.Sprintf("post %d A", i), s.A, at + 4, true},
			operandAt{fmt.Sprintf("post %d B", i), s.B, at + 13, true})
	}
	for i, s := range ins.Pre[0] {
		at := 21 + 22*len(ins.Post[0]) + 31*i
		iPos = append(iPos, operandAt{fmt.Sprintf("pre %d A", i), s.A, at + 4, false},
			operandAt{fmt.Sprintf("pre %d B", i), s.B, at + 13, false},
			operandAt{fmt.Sprintf("far %d", i), ins.Far[i], at + 22, false})
	}
	if len(d.Steps[0]) == 0 || len(g.Pre[0]) == 0 || len(ins.Post[0]) == 0 || len(ins.Pre[0]) == 0 {
		t.Fatal("a frame has an empty schedule")
	}

	frames := []struct {
		name string
		buf  []byte
		pos  []operandAt
		// decode decodes a frame, reporting a Decode error as such.
		decode func([]byte) (validate func() error, err error)
	}{
		{"descriptor", d.Encode(), dPos, func(b []byte) (func() error, error) {
			d, err := Decode(b)
			return func() error { return d.Validate(n, 1) }, err
		}},
		{"gradient plan", g.Encode(), gPos, func(b []byte) (func() error, error) {
			g, err := DecodeGradPlan(b)
			return func() error { return g.Validate(n, 1) }, err
		}},
		{"insertion plan", ins.Encode(), iPos, func(b []byte) (func() error, error) {
			var pl InsertPlan
			err := pl.Decode(b)
			return func() error { return pl.Validate(n) }, err
		}},
	}
	for _, f := range frames {
		validate, err := f.decode(f.buf)
		if err == nil {
			err = validate()
		}
		if err != nil {
			t.Fatalf("%s: the frame as built: %v", f.name, err)
		}
		for _, at := range f.pos {
			if !bytes.Equal(f.buf[at.off:at.off+9], putRef(nil, at.ref)) {
				t.Fatalf("%s %s: offset %d does not hold %+v", f.name, at.name, at.off, at.ref)
			}
			bad := append([]byte(nil), f.buf...)
			for _, kind := range []byte{3, 4, 255} {
				bad[at.off] = kind
				if _, err := f.decode(bad); err == nil {
					t.Errorf("%s %s: kind %d decoded", f.name, at.name, kind)
				}
			}
			// Outer vector 0 exists on every tree.
			bad[at.off] = 2
			clear(bad[at.off+1 : at.off+9])
			validate, err := f.decode(bad)
			if err == nil {
				err = validate()
			}
			if at.post && err == nil {
				t.Errorf("%s %s: an outer vector accepted where a post-order operand belongs", f.name, at.name)
			}
			if !at.post && err != nil {
				t.Errorf("%s %s: an outer vector refused: %v", f.name, at.name, err)
			}
		}
	}
}

// TestStepDestinationsKeepTheirKind: a frame encodes a step's destination
// without its kind, and the decoder gives it the kind the frame's
// schedule writes — a CLV slot in a descriptor and in an insertion plan's
// post-order schedule, an outer slot in a gradient plan and in an
// insertion plan's pre-order schedule. A step that writes any other kind
// would run on the receiver as another slot than on the sender, so
// Validate refuses it; every frame Build and BuildGradient produce
// decodes to itself.
func TestStepDestinationsKeepTheirKind(t *testing.T) {
	for _, n := range []int{5, 9, 24} {
		for _, classes := range []int{1, 3} {
			rng := rand.New(rand.NewSource(int64(10*n + classes)))
			tr := tree.NewRandom(taxa(n), classes, rng)
			for _, force := range []bool{true, false} {
				for _, h := range tr.HalfNodes {
					d := Build(tr, h, force)
					got, err := Decode(d.Encode())
					if err == nil {
						err = got.Validate(n, classes)
					}
					if err != nil || !reflect.DeepEqual(got, d) {
						t.Fatalf("%d taxa, %d classes: descriptor of edge %d decodes to %+v (%v), built %+v", n, classes, h.ID, got, err, d)
					}
				}
			}
			for _, reuse := range []bool{false, true} {
				g, _ := BuildGradient(tr, nil)
				g.Reuse = reuse
				if reuse {
					g.Active = make([]bool, classes*g.NBranches())
					for i := range g.Active {
						g.Active[i] = rng.Intn(2) == 0
					}
				}
				got, err := DecodeGradPlan(g.Encode())
				if err == nil {
					err = got.Validate(n, classes)
				}
				if err != nil || !reflect.DeepEqual(got, g) {
					t.Fatalf("%d taxa, %d classes, reuse %v: gradient plan decodes to a different plan (%v)", n, classes, reuse, err)
				}
			}

			// A gradient plan whose pre-order schedule is a descriptor's
			// post-order one: the master would write CLV slots, every
			// worker the outer slots of the same numbers.
			d := Build(tr, tr.Tip(0), true)
			g, _ := BuildGradient(tr, nil)
			g.Pre = d.Steps
			if err := g.Validate(n, classes); err == nil {
				t.Errorf("%d taxa, %d classes: gradient plan writing CLV slots validated", n, classes)
			}
			dec, err := DecodeGradPlan(g.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if got := dec.Pre[0][0].Dst; got.Kind != likelihood.Outer {
				t.Fatalf("%d taxa: a decoded gradient plan's step writes %v, want an outer slot", n, got)
			}
			d.Steps[classes-1][0].Dst = likelihood.TipAt(0)
			if err := d.Validate(n, classes); err == nil {
				t.Errorf("%d taxa, %d classes: descriptor writing a tip validated", n, classes)
			}
		}
	}

	tr := tree.NewRandom(taxa(9), 1, rand.New(rand.NewSource(3)))
	ps, err := tr.Prune(tr.InnerRing(3))
	if err != nil {
		t.Fatal(err)
	}
	var ins InsertPlan
	ins.Build(tr, ps, ps.CandidateEdges(1, 4), allDirty(tr))
	if err := ins.Validate(9); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what string
		dst  *likelihood.Ref
		bad  likelihood.Ref
	}{
		{"post-order step writing a tip", &ins.Post[0][0].Dst, likelihood.TipAt(0)},
		{"pre-order step writing a CLV slot", &ins.Pre[0][0].Dst, likelihood.InnerAt(0)},
	} {
		saved := *tc.dst
		*tc.dst = tc.bad
		if err := ins.Validate(9); err == nil {
			t.Errorf("insertion plan with a %s validated", tc.what)
		}
		*tc.dst = saved
	}
}
