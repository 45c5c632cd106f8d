// Package msa provides multiple-sequence-alignment handling: IUPAC DNA
// states, partition schemes, site-pattern compression, the relaxed PHYLIP
// interchange format, and the compact binary alignment format that the
// ExaML paper announces for fast parallel (re-)distribution of data.
package msa

import "fmt"

// State is a 4-bit DNA state vector using the RAxML/PHYLIP convention:
// bit 0 = A, bit 1 = C, bit 2 = G, bit 3 = T. Ambiguity codes set several
// bits; a gap or N sets all four (it carries no information and contributes
// a factor of 1 to the likelihood).
type State uint8

// Concrete nucleotide states and the fully ambiguous gap state.
const (
	StateA   State = 1
	StateC   State = 2
	StateG   State = 4
	StateT   State = 8
	StateGap State = 15
)

// NumStates is the DNA alphabet size.
const NumStates = 4

var charToState = map[byte]State{
	'A': StateA, 'C': StateC, 'G': StateG, 'T': StateT, 'U': StateT,
	'M': StateA | StateC, 'R': StateA | StateG, 'W': StateA | StateT,
	'S': StateC | StateG, 'Y': StateC | StateT, 'K': StateG | StateT,
	'B': StateC | StateG | StateT, 'D': StateA | StateG | StateT,
	'H': StateA | StateC | StateT, 'V': StateA | StateC | StateG,
	'N': StateGap, 'X': StateGap, '-': StateGap, '?': StateGap, 'O': StateGap,
}

var stateToChar = [16]byte{
	0: '?', 1: 'A', 2: 'C', 3: 'M', 4: 'G', 5: 'R', 6: 'S', 7: 'V',
	8: 'T', 9: 'W', 10: 'Y', 11: 'H', 12: 'K', 13: 'D', 14: 'B', 15: '-',
}

// StateFromChar converts an alignment character (case-insensitive IUPAC
// nucleotide code, gap, or ?) to its State.
func StateFromChar(c byte) (State, error) {
	if c >= 'a' && c <= 'z' {
		c -= 'a' - 'A'
	}
	s, ok := charToState[c]
	if !ok {
		return 0, fmt.Errorf("msa: invalid alignment character %q", c)
	}
	return s, nil
}

// Char returns the canonical IUPAC character for s.
func (s State) Char() byte {
	if s > 15 {
		return '?'
	}
	return stateToChar[s]
}

// Index returns 0..3 for a concrete state and -1 otherwise.
func (s State) Index() int {
	switch s {
	case StateA:
		return 0
	case StateC:
		return 1
	case StateG:
		return 2
	case StateT:
		return 3
	}
	return -1
}

// TipVector returns the 4-entry conditional likelihood of the state: 1 for
// every nucleotide compatible with s, 0 otherwise. Gap/N yields all ones.
func (s State) TipVector() [NumStates]float64 {
	var v [NumStates]float64
	for b := 0; b < NumStates; b++ {
		if s&(1<<b) != 0 {
			v[b] = 1
		}
	}
	return v
}
