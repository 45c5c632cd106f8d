package msa

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParsePhylip: an accepted file is an alignment the loader can
// compress — the header's shape, rows of equal length, valid states —
// and it writes back to a file that parses to the same alignment;
// anything else is an error, never a panic.
func FuzzParsePhylip(f *testing.F) {
	var buf bytes.Buffer
	if err := WritePhylip(&buf, randomAlignment(7, 83, 19)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("3 12\nalpha ACGTAC\nbeta  CCGTAC\ngamma GGGTAC\n\nGTACGT\nGTACGT\nGTACGT\n")
	for _, s := range []string{
		"",
		"abc def\n",
		"2 4\naa ACGT\nbb ACGT\n",
		"3 8\naa ACGT\nbb ACGT\ncc ACGT\n",
		"3 4\naa AZGT\nbb ACGT\ncc ACGT\n",
		"3 4\naa ACGT\nbb ACGT\ncc ACGT\nACGT\n",
		"3 4000000000000\naa ACGT\nbb ACGT\ncc ACGT\n",
		"4000000000000 4\naa ACGT\nbb ACGT\ncc ACGT\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		a, err := ParsePhylip(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("accepted an alignment that does not validate: %v", err)
		}
		for i, row := range a.Seqs {
			if len(row) != a.NSites() {
				t.Fatalf("row %d has %d sites, row 0 %d", i, len(row), a.NSites())
			}
		}
		if _, err := Compress(a, nil); err != nil {
			t.Fatalf("accepted an alignment the loader refuses: %v", err)
		}
		var out bytes.Buffer
		if err := WritePhylip(&out, a); err != nil {
			t.Fatal(err)
		}
		back, err := ParsePhylip(&out)
		if err != nil {
			t.Fatalf("an accepted alignment writes a file that does not parse: %v", err)
		}
		if back.NTaxa() != a.NTaxa() || back.NSites() != a.NSites() {
			t.Fatalf("round trip changed the shape: %d×%d → %d×%d", a.NTaxa(), a.NSites(), back.NTaxa(), back.NSites())
		}
	})
}

// FuzzParsePartitionFile: accepted partitions are what the loader
// assumes of them — sorted non-empty ranges that tile [0, nSites), every
// site in exactly one — and they format back to a file that parses to
// the same partitions.
func FuzzParsePartitionFile(f *testing.F) {
	f.Add("\n# comment\nDNA, geneB = 1001-2000\nDNA, geneA = 1-1000\n", 2000)
	for _, s := range []string{
		"PROT, x = 1-10",
		"DNA x = 1-10",
		"DNA, x 1-10",
		"DNA, x = 10",
		"DNA, x = 0-10",
		"DNA, x = 5-200",
		"DNA, = 1-10",
		"",
		"DNA, a = 1-10\nDNA, b = 5-20",
		"DNA, a = 1-40\nDNA, b = 61-100",
	} {
		f.Add(s, 100)
	}
	f.Fuzz(func(t *testing.T, text string, nSites int) {
		parts, err := ParsePartitionFile(text, nSites)
		if err != nil {
			return
		}
		prev := 0
		for i, p := range parts {
			if p.Lo != prev || p.Lo >= p.Hi {
				t.Fatalf("partition %d [%d, %d) does not start the untiled rest [%d, %d)", i, p.Lo, p.Hi, prev, nSites)
			}
			prev = p.Hi
		}
		if prev != nSites {
			t.Fatalf("the partitions tile [0, %d), not [0, %d)", prev, nSites)
		}
		back, err := ParsePartitionFile(FormatPartitionFile(parts), nSites)
		if err != nil {
			t.Fatalf("accepted partitions format to a file that does not parse: %v", err)
		}
		if len(back) != len(parts) {
			t.Fatalf("round trip gives %d partitions, want %d", len(back), len(parts))
		}
		for i := range back {
			if back[i].Lo != parts[i].Lo || back[i].Hi != parts[i].Hi {
				t.Fatalf("round trip moved partition %d: %+v → %+v", i, parts[i], back[i])
			}
		}
	})
}
