package model

import "testing"

func TestSubstModelGroups(t *testing.T) {
	if got := GTR.FreeRateGroups(); len(got) != 5 {
		t.Errorf("GTR has %d free groups, want 5", len(got))
	}
	if got := JC.FreeRateGroups(); len(got) != 0 {
		t.Errorf("JC has %d free groups, want 0", len(got))
	}
	for _, m := range []SubstModel{K80, HKY} {
		groups := m.FreeRateGroups()
		if len(groups) != 1 {
			t.Fatalf("%v has %d free groups, want 1", m, len(groups))
		}
		// The tied group must be exactly the transitions AG (1) and CT (4).
		if len(groups[0]) != 2 || groups[0][0] != 1 || groups[0][1] != 4 {
			t.Errorf("%v transition group = %v, want [1 4]", m, groups[0])
		}
	}
	// No group may include the GT reference rate (index 5).
	for _, m := range []SubstModel{GTR, JC, K80, HKY} {
		for _, g := range m.FreeRateGroups() {
			for _, ri := range g {
				if ri == NumRates-1 {
					t.Errorf("%v frees the reference rate", m)
				}
			}
		}
	}
}

func TestSubstModelFreqs(t *testing.T) {
	emp := [4]float64{0.4, 0.3, 0.2, 0.1}
	if f := JC.InitialFreqs(emp); f != UniformFreqs() {
		t.Errorf("JC freqs = %v", f)
	}
	if f := K80.InitialFreqs(emp); f != UniformFreqs() {
		t.Errorf("K80 freqs = %v", f)
	}
	if f := HKY.InitialFreqs(emp); f != emp {
		t.Errorf("HKY freqs = %v", f)
	}
	if f := GTR.InitialFreqs(emp); f != emp {
		t.Errorf("GTR freqs = %v", f)
	}
}

func TestParseSubstModel(t *testing.T) {
	cases := map[string]SubstModel{
		"GTR": GTR, "gtr": GTR, "": GTR,
		"JC": JC, "JC69": JC,
		"K80": K80, "K2P": K80,
		"HKY": HKY, "hky85": HKY,
	}
	for s, want := range cases {
		got, err := ParseSubstModel(s)
		if err != nil || got != want {
			t.Errorf("ParseSubstModel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSubstModel("F84"); err == nil {
		t.Error("unknown model accepted")
	}
	if GTR.String() != "GTR" || JC.String() != "JC" || K80.String() != "K80" || HKY.String() != "HKY" {
		t.Error("String broken")
	}
}
