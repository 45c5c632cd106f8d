package model

import (
	"fmt"

	"repro/internal/msa"
)

// SubstModel names a nucleotide substitution model as a constraint on the
// GTR exchangeabilities (every named model is a special case of GTR, so
// the kernels are unchanged — only which rates the optimizer may move and
// how frequencies are initialized differ).
//
// Rate vector order: AC, AG, AT, CG, CT, GT (GT fixed to 1 as reference).
// Transitions are AG and CT; the others are transversions.
type SubstModel int

// Supported substitution models.
const (
	// GTR is the general time-reversible model: 5 free exchangeabilities,
	// empirical base frequencies (the paper's model).
	GTR SubstModel = iota
	// JC is Jukes–Cantor 1969: all rates equal and fixed, uniform
	// frequencies. Zero free parameters.
	JC
	// K80 is Kimura 1980: one free transition/transversion ratio κ,
	// uniform frequencies.
	K80
	// HKY is Hasegawa–Kishino–Yano 1985: one free κ, empirical
	// frequencies.
	HKY
)

// String implements fmt.Stringer.
func (m SubstModel) String() string {
	switch m {
	case GTR:
		return "GTR"
	case JC:
		return "JC"
	case K80:
		return "K80"
	case HKY:
		return "HKY"
	}
	return fmt.Sprintf("SubstModel(%d)", int(m))
}

// ParseSubstModel reads a model name.
func ParseSubstModel(s string) (SubstModel, error) {
	switch s {
	case "GTR", "gtr", "":
		return GTR, nil
	case "JC", "jc", "JC69", "jc69":
		return JC, nil
	case "K80", "k80", "K2P", "k2p":
		return K80, nil
	case "HKY", "hky", "HKY85", "hky85":
		return HKY, nil
	}
	return GTR, fmt.Errorf("model: unknown substitution model %q (want GTR, JC, K80, or HKY)", s)
}

// transition rate indices (AG, CT) in the exchangeability vector.
var transitionIdx = []int{1, 4}

// FreeRateGroups returns the groups of exchangeability indices the
// optimizer may move, with every index inside a group tied to the same
// value. GTR: five singleton groups; K80/HKY: one group {AG, CT} (κ);
// JC: none.
func (m SubstModel) FreeRateGroups() [][]int {
	switch m {
	case GTR:
		return [][]int{{0}, {1}, {2}, {3}, {4}}
	case K80, HKY:
		return [][]int{append([]int(nil), transitionIdx...)}
	default:
		return nil
	}
}

// InitialFreqs returns the stationary frequencies the model prescribes:
// uniform for JC and K80, the empirical frequencies otherwise.
func (m SubstModel) InitialFreqs(empirical [msa.NumStates]float64) [msa.NumStates]float64 {
	if m == JC || m == K80 {
		return UniformFreqs()
	}
	return empirical
}
