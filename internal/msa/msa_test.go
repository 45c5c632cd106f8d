package msa

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomAlignment builds a valid random alignment for tests.
func randomAlignment(nTaxa, nSites int, seed int64) *Alignment {
	rng := rand.New(rand.NewSource(seed))
	letters := []byte("ACGT")
	a := &Alignment{}
	for i := 0; i < nTaxa; i++ {
		a.Names = append(a.Names, "tax"+string(rune('A'+i%26))+string(rune('0'+i/26)))
		seq := make([]State, nSites)
		for j := range seq {
			s, _ := StateFromChar(letters[rng.Intn(4)])
			if rng.Intn(20) == 0 {
				s = StateGap
			}
			seq[j] = s
		}
		a.Seqs = append(a.Seqs, seq)
	}
	return a
}

func TestAlignmentValidate(t *testing.T) {
	good := randomAlignment(5, 40, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	ragged := randomAlignment(5, 40, 2)
	ragged.Seqs[2] = ragged.Seqs[2][:30]
	if ragged.Validate() == nil {
		t.Error("ragged alignment accepted")
	}
	dup := randomAlignment(5, 40, 3)
	dup.Names[1] = dup.Names[0]
	if dup.Validate() == nil {
		t.Error("duplicate names accepted")
	}
	tiny := randomAlignment(2, 40, 4)
	if tiny.Validate() == nil {
		t.Error("2-taxon alignment accepted")
	}
	zero := randomAlignment(4, 10, 5)
	zero.Seqs[0][0] = 0
	if zero.Validate() == nil {
		t.Error("zero state accepted")
	}
}

func TestSortTaxa(t *testing.T) {
	a := &Alignment{
		Names: []string{"zeta", "alpha", "mid"},
		Seqs: [][]State{
			{StateA, StateA}, {StateC, StateC}, {StateG, StateG},
		},
	}
	a.SortTaxa()
	if a.Names[0] != "alpha" || a.Names[1] != "mid" || a.Names[2] != "zeta" {
		t.Fatalf("names after sort: %v", a.Names)
	}
	if a.Seqs[0][0] != StateC || a.Seqs[2][0] != StateA {
		t.Fatal("rows did not follow names")
	}
}

func TestBaseFrequenciesSumToOne(t *testing.T) {
	a := randomAlignment(6, 200, 7)
	f := a.BaseFrequencies(0, a.NSites())
	sum := 0.0
	for _, v := range f {
		sum += v
		if v <= 0 {
			t.Fatalf("frequency %g not positive", v)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("frequencies sum to %g", sum)
	}
}

func TestBaseFrequenciesSkew(t *testing.T) {
	// All-A alignment: freq(A) must dominate.
	a := &Alignment{Names: []string{"a", "b", "c"}}
	for range a.Names {
		seq := make([]State, 100)
		for j := range seq {
			seq[j] = StateA
		}
		a.Seqs = append(a.Seqs, seq)
	}
	f := a.BaseFrequencies(0, 100)
	if f[0] < 0.9 {
		t.Fatalf("freq(A) = %g for an all-A alignment", f[0])
	}
}

func TestUniformPartitions(t *testing.T) {
	parts, err := UniformPartitions(1050, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 10 {
		t.Fatalf("%d partitions", len(parts))
	}
	total := 0
	for i, p := range parts {
		if p.NSites() <= 0 {
			t.Fatalf("partition %d empty", i)
		}
		total += p.NSites()
	}
	if total != 1050 {
		t.Fatalf("sites covered = %d", total)
	}
	if parts[9].Hi != 1050 {
		t.Fatal("last partition must absorb the remainder")
	}
	if _, err := UniformPartitions(5, 10); err == nil {
		t.Error("more partitions than sites accepted")
	}
}

func TestParsePartitionFile(t *testing.T) {
	text := `
# comment
DNA, geneB = 1001-2000
DNA, geneA = 1-1000
`
	parts, err := ParsePartitionFile(text, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || parts[0].Name != "geneA" || parts[0].Lo != 0 || parts[0].Hi != 1000 {
		t.Fatalf("parts = %+v", parts)
	}
	if parts[1].Lo != 1000 || parts[1].Hi != 2000 {
		t.Fatalf("parts = %+v", parts)
	}

	round, err := ParsePartitionFile(FormatPartitionFile(parts), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(round) != 2 || round[0] != parts[0] || round[1] != parts[1] {
		t.Fatal("format/parse round trip mismatch")
	}
}

func TestParsePartitionFileErrors(t *testing.T) {
	bad := []string{
		"PROT, x = 1-10",
		"DNA x = 1-10",
		"DNA, x 1-10",
		"DNA, x = 10",
		"DNA, x = 0-10",
		"DNA, x = 5-200",
		"DNA, = 1-10",
		"",
		"DNA, a = 1-10\nDNA, b = 5-20",
	}
	for _, text := range bad {
		if _, err := ParsePartitionFile(text, 100); err == nil {
			t.Errorf("ParsePartitionFile(%q) succeeded", text)
		}
	}
}

func TestCompressCollapsesPatterns(t *testing.T) {
	// Three identical columns + one distinct = 2 patterns, weights {3,1}.
	a := &Alignment{
		Names: []string{"t1", "t2", "t3"},
		Seqs: [][]State{
			{StateA, StateA, StateA, StateC},
			{StateC, StateC, StateC, StateC},
			{StateG, StateG, StateG, StateC},
		},
	}
	d, err := Compress(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	pd := d.Parts[0]
	if pd.NPatterns() != 2 {
		t.Fatalf("%d patterns, want 2", pd.NPatterns())
	}
	if pd.Weights[0] != 3 || pd.Weights[1] != 1 {
		t.Fatalf("weights = %v", pd.Weights)
	}
	if pd.NSites() != 4 || d.TotalSites() != 4 || d.TotalPatterns() != 2 {
		t.Fatal("site accounting wrong")
	}
}

func TestCompressPreservesSiteCount(t *testing.T) {
	a := randomAlignment(8, 500, 11)
	parts, _ := UniformPartitions(500, 5)
	d, err := Compress(a, parts)
	if err != nil {
		t.Fatal(err)
	}
	if d.NPartitions() != 5 {
		t.Fatalf("%d partitions", d.NPartitions())
	}
	if d.TotalSites() != 500 {
		t.Fatalf("total sites = %d", d.TotalSites())
	}
	if d.TotalPatterns() > 500 || d.TotalPatterns() < 5 {
		t.Fatalf("total patterns = %d", d.TotalPatterns())
	}
	// Taxa must come out sorted.
	for i := 1; i < len(d.Names); i++ {
		if d.Names[i-1] >= d.Names[i] {
			t.Fatal("dataset taxa not sorted")
		}
	}
}

func TestCompressDeterministic(t *testing.T) {
	a := randomAlignment(6, 300, 13)
	parts, _ := UniformPartitions(300, 3)
	d1, err := Compress(a, parts)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Compress(a, parts)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := WriteBinary(&b1, d1); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&b2, d2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("compression is not deterministic")
	}
}

func TestPartitionDataSliceAndSelect(t *testing.T) {
	a := randomAlignment(5, 120, 17)
	d, err := Compress(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	pd := d.Parts[0]
	np := pd.NPatterns()
	span := make([]int, 0, np-3)
	for j := 2; j < np-1; j++ {
		span = append(span, j)
	}
	sl := pd.Select(span)
	if sl.NPatterns() != np-3 {
		t.Fatalf("slice patterns = %d, want %d", sl.NPatterns(), np-3)
	}
	if sl.Tips[0][0] != pd.Tips[0][2] {
		t.Fatal("slice misaligned")
	}
	sel := pd.Select([]int{0, 3, 5})
	if sel.NPatterns() != 3 || sel.Tips[1][1] != pd.Tips[1][3] {
		t.Fatal("select misaligned")
	}
	if sel.Weights[2] != pd.Weights[5] {
		t.Fatal("select weights misaligned")
	}
}

func TestPhylipRoundTrip(t *testing.T) {
	a := randomAlignment(7, 83, 19)
	var buf bytes.Buffer
	if err := WritePhylip(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := ParsePhylip(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NTaxa() != a.NTaxa() || back.NSites() != a.NSites() {
		t.Fatalf("dims changed: %dx%d", back.NTaxa(), back.NSites())
	}
	for i := range a.Seqs {
		if back.Names[i] != a.Names[i] {
			t.Fatalf("name %d changed", i)
		}
		for j := range a.Seqs[i] {
			if back.Seqs[i][j] != a.Seqs[i][j] {
				t.Fatalf("state (%d,%d) changed", i, j)
			}
		}
	}
}

func TestPhylipInterleaved(t *testing.T) {
	src := `3 12
alpha ACGTAC
beta  CCGTAC
gamma GGGTAC

GTACGT
GTACGT
GTACGT
`
	a, err := ParsePhylip(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.NSites() != 12 {
		t.Fatalf("sites = %d", a.NSites())
	}
	if a.Seqs[2][6] != StateG {
		t.Fatal("interleaved continuation misassigned")
	}
}

func TestPhylipErrors(t *testing.T) {
	bad := []string{
		"",
		"abc def\n",
		"2 4\naa ACGT\nbb ACGT\n",                // too few taxa
		"3 8\naa ACGT\nbb ACGT\ncc ACGT\n",       // short sequences
		"3 4\naa AZGT\nbb ACGT\ncc ACGT\n",       // invalid char
		"3 4\naa ACGT\nbb ACGT\ncc ACGT\nACGT\n", // trailing data
	}
	for _, s := range bad {
		if _, err := ParsePhylip(strings.NewReader(s)); err == nil {
			t.Errorf("ParsePhylip(%q) succeeded", s)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	a := randomAlignment(9, 400, 23)
	parts, _ := UniformPartitions(400, 4)
	d, err := Compress(a, parts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NTaxa() != d.NTaxa() || back.NPartitions() != d.NPartitions() {
		t.Fatal("dims changed")
	}
	for pi, p := range d.Parts {
		bp := back.Parts[pi]
		if bp.Name != p.Name || bp.NPatterns() != p.NPatterns() {
			t.Fatalf("partition %d header changed", pi)
		}
		for i := range p.Weights {
			if bp.Weights[i] != p.Weights[i] {
				t.Fatalf("partition %d weight %d changed", pi, i)
			}
		}
		for ti := range p.Tips {
			for j := range p.Tips[ti] {
				if bp.Tips[ti][j] != p.Tips[ti][j] {
					t.Fatalf("partition %d tip (%d,%d) changed", pi, ti, j)
				}
			}
		}
		for i := range p.Freqs {
			if bp.Freqs[i] != p.Freqs[i] {
				t.Fatalf("partition %d freq %d changed", pi, i)
			}
		}
	}
}

func TestBinaryDetectsCorruption(t *testing.T) {
	a := randomAlignment(5, 100, 29)
	d, _ := Compress(a, nil)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Flip a payload byte: CRC must catch it.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0xff
	if _, err := ReadBinary(bytes.NewReader(corrupt)); err == nil {
		t.Error("corrupted payload accepted")
	}
	// Truncate: must fail, not hang or panic.
	if _, err := ReadBinary(bytes.NewReader(data[:len(data)-6])); err == nil {
		t.Error("truncated file accepted")
	}
	// Wrong magic.
	wrong := append([]byte(nil), data...)
	wrong[0] = 'X'
	if _, err := ReadBinary(bytes.NewReader(wrong)); err == nil {
		t.Error("bad magic accepted")
	}
}
