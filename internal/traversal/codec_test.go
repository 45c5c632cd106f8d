package traversal

import (
	"bytes"
	"fmt"
	"math/rand"
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
	ins.Build(tr, ps, ps.CandidateEdges(1, 4), nil)
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
