package traversal

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/likelihood"
	"repro/internal/tree"
)

func taxa(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('A'+i%26)) + string(rune('0'+i/26))
	}
	return out
}

func TestFullTraversalCoversAllInner(t *testing.T) {
	tr := tree.NewRandom(taxa(15), 1, rand.New(rand.NewSource(1)))
	steps := ForEdge(tr, tr.Tip(0), 0, true)
	if len(steps) != tr.NInner() {
		t.Fatalf("%d steps, want %d", len(steps), tr.NInner())
	}
	seen := map[likelihood.Ref]bool{}
	for _, s := range steps {
		if seen[s.Dst] {
			t.Fatalf("vertex %d computed twice", s.Dst)
		}
		seen[s.Dst] = true
	}
}

func TestTraversalPostOrder(t *testing.T) {
	// Every inner operand of a step must have been computed earlier.
	tr := tree.NewRandom(taxa(20), 1, rand.New(rand.NewSource(2)))
	steps := ForEdge(tr, tr.InnerRing(3), 0, true)
	done := map[likelihood.Ref]bool{}
	for i, s := range steps {
		for _, op := range []likelihood.Ref{s.A, s.B} {
			if op.Kind != likelihood.Tip && !done[op] {
				t.Fatalf("step %d consumes uncomputed CLV %d", i, op.Idx)
			}
		}
		done[s.Dst] = true
	}
}

func TestPartialTraversalEmptyWhenOriented(t *testing.T) {
	tr := tree.NewRandom(taxa(10), 1, rand.New(rand.NewSource(3)))
	p := tr.Tip(0)
	ForEdge(tr, p, 0, true)
	// Second call without force: everything already oriented.
	steps := ForEdge(tr, p, 0, false)
	if len(steps) != 0 {
		t.Fatalf("re-orientation produced %d steps, want 0", len(steps))
	}
}

func TestBuildMultiClassLengths(t *testing.T) {
	tr := tree.NewRandom(taxa(8), 3, rand.New(rand.NewSource(4)))
	for _, e := range tr.Edges() {
		for c := 0; c < 3; c++ {
			e.SetLength(c, 0.1*float64(c+1)+0.01*float64(e.ID))
		}
	}
	d := Build(tr, tr.Tip(2), true)
	if len(d.Steps) != 3 {
		t.Fatalf("%d classes", len(d.Steps))
	}
	if len(d.Steps[0]) != tr.NInner() {
		t.Fatalf("%d steps", len(d.Steps[0]))
	}
	for c := 1; c < 3; c++ {
		if len(d.Steps[c]) != len(d.Steps[0]) {
			t.Fatal("class schedules differ in length")
		}
		for i := range d.Steps[c] {
			if d.Steps[c][i].Dst != d.Steps[0][i].Dst {
				t.Fatal("class schedules differ in structure")
			}
			// Lengths must come from the right class: our construction
			// sets class lengths to distinct ranges.
			if d.Steps[c][i].TA == d.Steps[0][i].TA && d.Steps[c][i].TB == d.Steps[0][i].TB {
				t.Fatalf("class %d step %d has class-0 lengths", c, i)
			}
		}
		if d.T[c] == d.T[0] {
			t.Fatal("root edge lengths identical across classes")
		}
	}
}

// realDescriptors hands f forced and partial descriptors of random trees
// with 1 and 3 branch-length classes, each unmasked and under a few
// active-partition masks (nParts partitions: one per class, or 5 under
// joint branch lengths).
func realDescriptors(t testing.TB, f func(tr *tree.Tree, nParts int, d *Descriptor)) {
	t.Helper()
	for _, classes := range []int{1, 3} {
		rng := rand.New(rand.NewSource(int64(5 + classes)))
		tr := tree.NewRandom(taxa(12), classes, rng)
		for _, e := range tr.Edges() {
			for c := 0; c < classes; c++ {
				e.SetLength(c, 0.01+rng.Float64())
			}
		}
		nParts := classes
		if classes == 1 {
			nParts = 5
		}
		masks := [][]bool{nil, make([]bool, nParts), make([]bool, nParts), make([]bool, nParts)}
		for i := range masks[2] {
			masks[2][i] = true
			masks[3][i] = i%2 == 0
		}
		for _, at := range []*tree.Node{tr.Tip(0), tr.InnerRing(1), tr.InnerRing(4).Next} {
			for _, force := range []bool{true, false} {
				for _, mask := range masks {
					d := Build(tr, at, force)
					d.Active = mask
					f(tr, nParts, d)
				}
			}
		}
	}
}

// oldDescriptorFrame is the encoder as it was before descriptors could
// carry a mask: the bytes Table I's traversal-descriptor class was
// metered in.
func oldDescriptorFrame(d *Descriptor) []byte {
	var buf []byte
	put32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	put64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	putRef := func(r likelihood.Ref) {
		if r.Kind == likelihood.Tip {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		put64(uint64(uint32(r.Idx)))
	}
	put32(uint32(len(d.Steps)))
	put32(uint32(len(d.Steps[0])))
	putRef(d.P)
	putRef(d.Q)
	for _, t := range d.T {
		put64(math.Float64bits(t))
	}
	for _, s := range d.Steps[0] {
		put32(uint32(s.Dst.Idx))
		putRef(s.A)
		putRef(s.B)
	}
	for _, cs := range d.Steps {
		for _, s := range cs {
			put64(math.Float64bits(s.TA))
			put64(math.Float64bits(s.TB))
		}
	}
	return buf
}

// TestDescriptorEncodeDecode pins the wire format: a descriptor without a
// mask encodes to the byte-identical frame it always had (so the bytes of
// every unmasked region in Table I are unchanged), a mask costs 4 bytes
// plus one bit per partition, WireSize and WireSizeForClasses are exact
// either way, and decoding reproduces the descriptor — nil mask as nil.
func TestDescriptorEncodeDecode(t *testing.T) {
	masked := 0
	realDescriptors(t, func(_ *tree.Tree, nParts int, d *Descriptor) {
		buf := d.Encode()
		if len(buf) != d.WireSize() {
			t.Fatalf("encoded %d bytes, WireSize says %d", len(buf), d.WireSize())
		}
		old := oldDescriptorFrame(d)
		if d.Active == nil {
			if !bytes.Equal(buf, old) {
				t.Fatal("unmasked descriptor no longer encodes to the frame it had")
			}
		} else {
			masked++
			if want := len(old) + 4 + (nParts+7)/8; len(buf) != want {
				t.Fatalf("masked frame is %d bytes, want %d", len(buf), want)
			}
		}
		back, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, d) {
			t.Fatalf("decoded descriptor differs:\n got %+v\nwant %+v", back, d)
		}
		if len(d.Steps) == 1 {
			// What the fork-join master meters on a single rank must be
			// what it would have broadcast: the descriptor padded to one
			// class per partition.
			padded := &Descriptor{P: d.P, Q: d.Q, Active: d.Active}
			for c := 0; c < nParts; c++ {
				padded.T = append(padded.T, d.T[0])
				padded.Steps = append(padded.Steps, d.Steps[0])
			}
			if got, want := d.WireSizeForClasses(nParts), len(padded.Encode()); got != want {
				t.Fatalf("WireSizeForClasses(%d) = %d, the padded frame is %d bytes", nParts, got, want)
			}
		}
	})
	if masked == 0 {
		t.Fatal("no masked descriptor checked")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	realDescriptors(t, func(_ *tree.Tree, _ int, d *Descriptor) {
		buf := d.Encode()
		if _, err := Decode(buf[:len(buf)-3]); err == nil {
			t.Error("truncated descriptor accepted")
		}
		if _, err := Decode(append(append([]byte(nil), buf...), 0)); err == nil {
			t.Error("trailing bytes accepted")
		}
		if n := len(d.Active); n%8 != 0 {
			bad := append([]byte(nil), buf...)
			bad[8+18+8*len(d.T)+4+n/8] |= 0x80 // a bit beyond the mask's last partition
			if _, err := Decode(bad); err == nil {
				t.Error("mask bits beyond the partition count accepted")
			}
		}
	})
	if _, err := Decode(nil); err == nil {
		t.Error("empty descriptor accepted")
	}
	// A header that promises far more than the frame holds must cost an
	// error, not an allocation sized from it.
	huge := make([]byte, 26)
	binary.LittleEndian.PutUint32(huge[0:], 1<<20)
	binary.LittleEndian.PutUint32(huge[4:], 1<<24)
	if _, err := Decode(huge); err == nil {
		t.Error("header-only frame claiming 2^24 steps accepted")
	}
}

// TestDescriptorValidateBoundsEverySlot: a real descriptor, padded the way
// the fork-join master pads it, passes for its own tree and partition
// count; any one address pushed past the tree, a wrong class count or a
// mask of another length — what a corrupted frame that still decodes
// would carry — is refused, so a worker never indexes a kernel buffer, a
// schedule or a mask from it.
func TestDescriptorValidateBoundsEverySlot(t *testing.T) {
	realDescriptors(t, func(tr *tree.Tree, nParts int, d *Descriptor) {
		n := tr.NTaxa()
		if len(d.Steps) == 1 {
			for c := 1; c < nParts; c++ {
				d.T = append(d.T, d.T[0])
				d.Steps = append(d.Steps, d.Steps[0])
			}
		}
		if err := d.Validate(n, nParts); err != nil {
			t.Fatal(err)
		}
		if len(d.Steps[0]) == tr.NInner() {
			if err := d.Validate(n-1, nParts); err == nil {
				t.Error("full descriptor accepted for a smaller tree than it was built on")
			}
		}
		if err := d.Validate(n, nParts+1); err == nil {
			t.Error("descriptor accepted for more partitions than it has schedules")
		}
		if d.Active != nil {
			d.Active = d.Active[:nParts-1]
			if err := d.Validate(n, nParts); err == nil {
				t.Error("short mask accepted")
			}
			d.Active = d.Active[:nParts]
		}
		d.T = d.T[:nParts-1]
		if err := d.Validate(n, nParts); err == nil {
			t.Error("descriptor with a root length missing accepted")
		}
		d.T = d.T[:nParts]
		corrupt := map[string]*int32{"P": &d.P.Idx, "Q": &d.Q.Idx}
		if len(d.Steps[0]) > 0 {
			last := len(d.Steps[0]) - 1
			corrupt["dst"] = &d.Steps[nParts-1][last].Dst.Idx
			corrupt["A"] = &d.Steps[0][0].A.Idx
			corrupt["B"] = &d.Steps[nParts-1][last].B.Idx
		}
		for what, field := range corrupt {
			for _, v := range []int32{-1, int32(n), 1 << 30} {
				saved := *field
				*field = v
				if err := d.Validate(n, nParts); err == nil {
					t.Errorf("%s = %d accepted on a %d-taxon tree", what, v, n)
				}
				*field = saved
			}
		}
		if len(d.Steps[0]) > 0 && nParts > 1 && &d.Steps[1][0] != &d.Steps[0][0] {
			d.Steps[1] = d.Steps[1][:len(d.Steps[1])-1]
			if err := d.Validate(n, nParts); err == nil {
				t.Error("schedules of different lengths accepted")
			}
		}
	})
}

// FuzzDecodeDescriptor: the decoder reads bytes a master sent. Whatever
// they are, it returns a descriptor that re-encodes to the same bytes or
// an error — it never panics and never sizes anything from a header the
// frame's length does not back — and Validate then answers for any tree
// and partition count without panicking either.
func FuzzDecodeDescriptor(f *testing.F) {
	realDescriptors(f, func(_ *tree.Tree, _ int, d *Descriptor) { f.Add(d.Encode()) })
	f.Add([]byte{})
	f.Add(make([]byte, 26))
	f.Add([]byte{1, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, buf []byte) {
		d, err := Decode(buf)
		if err != nil {
			return
		}
		if again := d.Encode(); !bytes.Equal(again, buf) {
			t.Fatalf("decoded descriptor re-encodes to %d bytes that differ from the %d decoded", len(again), len(buf))
		}
		_ = d.Validate(12, 3)
		_ = d.Validate(12, len(d.Steps))
	})
}

func TestWireSizeGrowsWithClasses(t *testing.T) {
	// The -M (per-partition branch lengths) descriptor must be
	// substantially larger — the effect Table I measures.
	tr1 := tree.NewRandom(taxa(52), 1, rand.New(rand.NewSource(7)))
	size1 := Build(tr1, tr1.Tip(0), true).WireSize()
	tr10 := tree.NewRandom(taxa(52), 10, rand.New(rand.NewSource(7)))
	size10 := Build(tr10, tr10.Tip(0), true).WireSize()
	if size10 < 4*size1 {
		t.Fatalf("10-class descriptor (%d B) not much larger than 1-class (%d B)", size10, size1)
	}
}
