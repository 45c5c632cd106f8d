package tree

import "testing"

// FuzzParseNewick: a string that parses is a tree whose Newick form is a
// fixed point — Newick(Parse(Newick(Parse(s)))) equals Newick(Parse(s))
// — and anything else is an error, never a panic.
func FuzzParseNewick(f *testing.F) {
	for _, s := range []string{
		"((A:0.1,B:0.2):0.05,(C:0.3,D:0.4):0.05);",
		"('taxon one':0.1,'it''s':0.2,(C:0.3,D:0.4):0.05);",
		"(A:-0.5,B:0.2,C:0.3);",
		"(A,B,(C,D));",
		"((A,B),C);",
		"(A,B);",
		"((A,B,C),D,E);",
		"(A,A,B);",
		"(A:0.1,B:0.2,C:0.3)",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := ParseNewick(s, 1)
		if err != nil {
			return
		}
		once := tr.Newick()
		back, err := ParseNewick(once, 1)
		if err != nil {
			t.Fatalf("%q parses, its Newick %q does not: %v", s, once, err)
		}
		if twice := back.Newick(); twice != once {
			t.Fatalf("Newick is not a fixed point: %q → %q", once, twice)
		}
	})
}
