package msa

import (
	"testing"
	"testing/quick"
)

func TestStateFromCharConcrete(t *testing.T) {
	cases := map[byte]State{
		'A': StateA, 'C': StateC, 'G': StateG, 'T': StateT,
		'a': StateA, 'c': StateC, 'g': StateG, 't': StateT,
		'U': StateT, 'u': StateT,
		'-': StateGap, 'N': StateGap, '?': StateGap,
		'R': StateA | StateG, 'Y': StateC | StateT,
	}
	for c, want := range cases {
		got, err := StateFromChar(c)
		if err != nil {
			t.Fatalf("StateFromChar(%q): %v", c, err)
		}
		if got != want {
			t.Errorf("StateFromChar(%q) = %d, want %d", c, got, want)
		}
	}
}

func TestStateFromCharInvalid(t *testing.T) {
	for _, c := range []byte{'Z', '1', '*', ' ', 0} {
		if _, err := StateFromChar(c); err == nil {
			t.Errorf("StateFromChar(%q) succeeded, want error", c)
		}
	}
}

func TestStateCharRoundTrip(t *testing.T) {
	for s := State(1); s <= 15; s++ {
		back, err := StateFromChar(s.Char())
		if err != nil {
			t.Fatalf("state %d → char %q: %v", s, s.Char(), err)
		}
		if back != s {
			t.Errorf("state %d round-trips to %d via %q", s, back, s.Char())
		}
	}
}

func TestStateIndex(t *testing.T) {
	if StateA.Index() != 0 || StateC.Index() != 1 || StateG.Index() != 2 || StateT.Index() != 3 {
		t.Error("concrete state indices wrong")
	}
	if StateGap.Index() != -1 || (StateA|StateG).Index() != -1 {
		t.Error("ambiguous states must have index -1")
	}
}

func TestTipVectorMatchesBits(t *testing.T) {
	f := func(raw uint8) bool {
		s := State(raw%15 + 1)
		v := s.TipVector()
		for b := 0; b < NumStates; b++ {
			want := 0.0
			if s&(1<<b) != 0 {
				want = 1
			}
			if v[b] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
