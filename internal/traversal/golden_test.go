package traversal

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/likelihood"
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

// goldenGradFrames returns the gradient plans the golden file pins, by
// name: joint and per-partition (-M) branch lengths, each as the
// smoother's first plan of a sweep (every slot), with a classes × edges
// slot mask, and as a masked Reuse plan of an inner Newton iteration (no
// pre-order steps).
func goldenGradFrames(t *testing.T) map[string]*GradPlan {
	frames := map[string]*GradPlan{}
	for name, classes := range map[string]int{"joint": 1, "M": 3} {
		tr := goldenTree(t, classes)
		full, _ := BuildGradient(tr, nil)
		frames[name+"-full"] = full
		mask := make([]bool, classes*full.NBranches())
		for i := range mask {
			mask[i] = i%3 != 1
		}
		masked, _ := BuildGradient(tr, nil)
		masked.Active = mask
		frames[name+"-masked"] = masked
		reuse := &GradPlan{Pre: make([][]likelihood.Step, classes), Edges: full.Edges, T: full.T, Active: mask, Reuse: true}
		frames[name+"-reuse"] = reuse
	}
	return frames
}

// readGoldenFrames reads a file of "name hex" lines.
func readGoldenFrames(t *testing.T, path string) map[string][]byte {
	t.Helper()
	f, err := os.Open(path)
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
	return want
}

// TestGradPlanFramesAreByteGolden holds GradPlan.Encode to frames
// recorded in testdata, in the manner of the descriptor frames: the
// gradient-plan bytes of every fork-join run's traversal-descriptor meter
// cannot move without this test failing. WireSize, and decoding back to
// the plan, are held to the same frames.
func TestGradPlanFramesAreByteGolden(t *testing.T) {
	want := readGoldenFrames(t, "testdata/grad_frames.hex")
	frames := goldenGradFrames(t)
	if len(want) != len(frames) {
		t.Fatalf("golden file holds %d frames, the test builds %d", len(want), len(frames))
	}
	for name, p := range frames {
		got := p.Encode()
		if hex.EncodeToString(got) != hex.EncodeToString(want[name]) {
			t.Errorf("%s encodes to\n %x\nwant\n %x", name, got, want[name])
		}
		if p.WireSize() != len(want[name]) {
			t.Errorf("%s: WireSize %d, golden frame %d bytes", name, p.WireSize(), len(want[name]))
		}
		back, err := DecodeGradPlan(want[name])
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !bytes.Equal(back.Encode(), want[name]) || !reflect.DeepEqual(back.Active, p.Active) || back.Reuse != p.Reuse {
			t.Errorf("%s: the golden frame decodes to another plan", name)
		}
	}
}

// TestDescriptorFramesAreByteGolden holds Descriptor.Encode to frames
// recorded in testdata: the traversal-descriptor bytes of Table I (and
// of every fork-join run's meter) cannot move without this test failing.
// WireSize is held to the same frames, the fork-join padding's
// (joint-masked-padded, what a single-rank master meters) among them.
func TestDescriptorFramesAreByteGolden(t *testing.T) {
	want := readGoldenFrames(t, "testdata/descriptor_frames.hex")
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
}
