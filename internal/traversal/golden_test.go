package traversal

import (
	"bufio"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"repro/internal/tree"
)

// goldenTree is a fixed 6-taxon tree with blClasses linkage classes; class
// c's lengths are the parsed ones scaled by c+1, so every class differs.
func goldenTree(t *testing.T, blClasses int) *tree.Tree {
	t.Helper()
	tr, err := tree.ParseNewick("((A:0.125,B:0.25):0.0625,(C:0.375,D:0.5):0.75,(E:0.625,F:0.875):1.5);", blClasses)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Edges() {
		for c := 1; c < blClasses; c++ {
			e.SetLength(c, e.Length(0)*float64(c+1))
		}
	}
	return tr
}

// goldenFrames returns the descriptors the golden file pins, by name:
// joint and per-partition (-M) branch lengths, forced and partial, with
// and without an active-partition mask, and a joint descriptor padded to
// one schedule per partition the way the fork-join master broadcasts it.
func goldenFrames(t *testing.T) map[string]*Descriptor {
	joint := goldenTree(t, 1)
	perPart := goldenTree(t, 3)
	frames := map[string]*Descriptor{}

	frames["joint-forced"] = Build(joint, joint.Tip(0), true)
	frames["joint-partial"] = Build(joint, joint.Tip(3), false)
	d := Build(joint, joint.InnerRing(2), true)
	d.Active = []bool{true, false, true, true, false}
	frames["joint-masked"] = d
	padded := &Descriptor{P: d.P, Q: d.Q, Active: d.Active}
	for range d.Active {
		padded.T = append(padded.T, d.T[0])
		padded.Steps = append(padded.Steps, d.Steps[0])
	}
	frames["joint-masked-padded"] = padded

	frames["M-forced"] = Build(perPart, perPart.InnerRing(1), true)
	frames["M-partial"] = Build(perPart, perPart.Tip(5), false)
	d = Build(perPart, perPart.Tip(2), true)
	d.Active = []bool{false, true, true}
	frames["M-masked"] = d
	return frames
}

// TestDescriptorFramesAreByteGolden holds Descriptor.Encode to frames
// recorded in testdata: the traversal-descriptor bytes of Table I (and
// of every fork-join run's meter) cannot move without this test failing.
// WireSize and the fork-join padding's WireSizeForClasses are held to
// the same frames.
func TestDescriptorFramesAreByteGolden(t *testing.T) {
	f, err := os.Open("testdata/descriptor_frames.hex")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, h, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	frames := goldenFrames(t)
	if len(want) != len(frames) {
		t.Fatalf("golden file holds %d frames, the test builds %d", len(want), len(frames))
	}
	for name, d := range frames {
		got := d.Encode()
		if hex.EncodeToString(got) != hex.EncodeToString(want[name]) {
			t.Errorf("%s encodes to\n %x\nwant\n %x", name, got, want[name])
		}
		if d.WireSize() != len(want[name]) {
			t.Errorf("%s: WireSize %d, golden frame %d bytes", name, d.WireSize(), len(want[name]))
		}
	}
	joint := frames["joint-masked"]
	if got, w := joint.WireSizeForClasses(len(joint.Active)), len(want["joint-masked-padded"]); got != w {
		t.Errorf("WireSizeForClasses(%d) = %d, the padded golden frame is %d bytes", len(joint.Active), got, w)
	}
}
