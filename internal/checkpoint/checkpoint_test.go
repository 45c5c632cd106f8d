package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/tree"
)

func taxa(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('A'+i%26)) + string(rune('0'+i/26))
	}
	return out
}

func sampleState(t testing.TB, nTaxa, classes int) (*State, *tree.Tree) {
	t.Helper()
	tr := tree.NewRandom(taxa(nTaxa), classes, rand.New(rand.NewSource(int64(nTaxa))))
	for i, e := range tr.Edges() {
		for c := 0; c < classes; c++ {
			e.SetLength(c, 0.01*float64(i+1)+0.001*float64(c))
		}
	}
	s := &State{
		Iteration: 7,
		LnL:       -12345.678,
		Taxa:      tr.Taxa,
		BLClasses: classes,
		Edges:     FromTree(tr),
		Shared:    [][]float64{{1, 1, 1, 1, 1, 1, 1}, {0.5, 2, 1, 1, 1, 1, 1}},
	}
	return s, tr
}

func TestStateRoundTrip(t *testing.T) {
	s, tr := sampleState(t, 12, 3)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Iteration != 7 || back.LnL != -12345.678 || back.BLClasses != 3 {
		t.Fatalf("header changed: %+v", back)
	}
	rebuilt, err := back.BuildTree()
	if err != nil {
		t.Fatal(err)
	}
	if !tree.SameTopology(tr, rebuilt) {
		t.Fatal("topology changed through checkpoint")
	}
	// Branch lengths of every class must survive exactly.
	re := rebuilt.Edges()
	for i, e := range tr.Edges() {
		for c := 0; c < 3; c++ {
			if re[i].Length(c) != e.Length(c) {
				t.Fatalf("edge %d class %d length changed", i, c)
			}
		}
	}
	if len(back.Shared) != 2 || back.Shared[1][0] != 0.5 {
		t.Fatalf("shared params changed: %v", back.Shared)
	}
}

func TestStateDetectsCorruption(t *testing.T) {
	s, _ := sampleState(t, 8, 1)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x01
	if _, err := Read(bytes.NewReader(corrupt)); err == nil {
		t.Error("corrupted checkpoint accepted")
	}
	if _, err := Read(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'Z'
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestBuildTreeValidation(t *testing.T) {
	s, _ := sampleState(t, 6, 1)
	s.Edges[0].A = 9999
	if _, err := s.BuildTree(); err == nil {
		t.Error("out-of-range half-node accepted")
	}
	s2, _ := sampleState(t, 6, 2)
	s2.BLClasses = 1
	if _, err := s2.BuildTree(); err == nil {
		t.Error("class count mismatch accepted")
	}
	// Missing edge → disconnected tree.
	s3, _ := sampleState(t, 6, 1)
	s3.Edges = s3.Edges[:len(s3.Edges)-1]
	if _, err := Read(bytes.NewReader(mustEncode(t, s3))); err == nil {
		t.Error("edge-count mismatch accepted at read time")
	}
}

func mustEncode(t *testing.T, s *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestV2Diagnostics(t *testing.T) {
	s, _ := sampleState(t, 8, 1)
	data := mustEncode(t, s)

	// Truncation must be reported as truncation (header declares more
	// body bytes than the file holds), not as a generic parse error.
	_, err := Read(bytes.NewReader(data[:len(data)-5]))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncated file: got %v, want a truncation diagnostic", err)
	}

	// A flipped body byte must be reported as a checksum mismatch.
	bad := append([]byte(nil), data...)
	bad[20] ^= 0x01
	_, err = Read(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("corrupt body: got %v, want a checksum diagnostic", err)
	}

	// Any other version — a future one, or the trailing-CRC v1 framing
	// nothing writes any more — must be rejected by number, not misparsed.
	for _, v := range []uint32{1, 99} {
		other := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(other[4:], v)
		_, err = Read(bytes.NewReader(other))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d", v)) {
			t.Errorf("version %d: got %v, want an unsupported-version diagnostic", v, err)
		}
	}

	// Trailing garbage (e.g. two checkpoints concatenated by a botched
	// write) is rejected rather than silently ignored.
	_, err = Read(bytes.NewReader(append(append([]byte(nil), data...), 0xEE)))
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing garbage: got %v, want a trailing-garbage diagnostic", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s, _ := sampleState(t, 9, 2)
	blob, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Iteration != s.Iteration || back.LnL != s.LnL || len(back.Edges) != len(s.Edges) {
		t.Fatalf("Encode/Decode round trip changed state: %+v", back)
	}
}

// TestHugeClaimsAreErrors: a header declaring a 2 GiB body, and a body
// declaring 2^24 taxa, in a few bytes, are errors that allocate no more
// than the input (the reader used to size both from the claim first).
func TestHugeClaimsAreErrors(t *testing.T) {
	huge := append([]byte(stateMagic), 2, 0, 0, 0, 0, 0, 0, 0x7f, 0, 0, 0, 0)
	body := binary.LittleEndian.AppendUint64(nil, 1)
	body = binary.LittleEndian.AppendUint64(body, 0)
	body = binary.LittleEndian.AppendUint32(body, 1<<24)
	for name, file := range map[string][]byte{"body length": huge, "taxon count": frame(body)} {
		if _, err := Decode(file); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Decode(huge)
	Decode(frame(body))
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("decoding two huge claims allocated %d bytes", got)
	}
}
