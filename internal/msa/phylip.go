package msa

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParsePhylip reads a relaxed PHYLIP alignment: a header line with taxon
// and site counts, then sequence data in either sequential or interleaved
// layout. Names are whitespace-delimited (relaxed: any length, no fixed
// 10-column field), and sequence characters may be split across lines and
// contain spaces.
func ParsePhylip(r io.Reader) (*Alignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 256*1024*1024)

	var nTaxa, nSites int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if n, err := fmt.Sscanf(line, "%d %d", &nTaxa, &nSites); n != 2 || err != nil {
			return nil, fmt.Errorf("msa: bad PHYLIP header %q", line)
		}
		break
	}
	if nTaxa < 3 || nSites < 1 {
		return nil, fmt.Errorf("msa: PHYLIP header declares %d taxa × %d sites", nTaxa, nSites)
	}

	a := &Alignment{
		Names: make([]string, 0, min(nTaxa, 1<<16)),
		Seqs:  make([][]State, 0, min(nTaxa, 1<<16)),
	}
	// First pass block: every taxon introduced by name.
	for len(a.Names) < nTaxa {
		if !sc.Scan() {
			return nil, fmt.Errorf("msa: PHYLIP ended after %d of %d taxa", len(a.Names), nTaxa)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		name := fields[0]
		// The header's site count sizes nothing before the rows arrive: a
		// row grows with what the file holds.
		seq := make([]State, 0, min(nSites, 1<<16))
		var err error
		if seq, err = appendStates(seq, strings.Join(fields[1:], "")); err != nil {
			return nil, fmt.Errorf("msa: taxon %q: %v", name, err)
		}
		a.Names = append(a.Names, name)
		a.Seqs = append(a.Seqs, seq)
	}
	// Remaining blocks: sequential (continue filling the shortest row) or
	// interleaved (cycle through taxa in order). Both are handled by
	// always appending to the first row that is not yet complete —
	// equivalent for well-formed files of either layout.
	cur := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		skipped := 0
		for len(a.Seqs[cur]) >= nSites {
			cur = (cur + 1) % nTaxa
			if skipped++; skipped > nTaxa {
				return nil, fmt.Errorf("msa: trailing data %q after alignment is complete", line)
			}
		}
		var err error
		if a.Seqs[cur], err = appendStates(a.Seqs[cur], line); err != nil {
			return nil, fmt.Errorf("msa: taxon %q continuation: %v", a.Names[cur], err)
		}
		cur = (cur + 1) % nTaxa
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("msa: reading PHYLIP: %w", err)
	}
	for i, seq := range a.Seqs {
		if len(seq) != nSites {
			return nil, fmt.Errorf("msa: taxon %q has %d sites, header says %d", a.Names[i], len(seq), nSites)
		}
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

func appendStates(dst []State, chunk string) ([]State, error) {
	for i := 0; i < len(chunk); i++ {
		c := chunk[i]
		if c == ' ' || c == '\t' {
			continue
		}
		s, err := StateFromChar(c)
		if err != nil {
			return nil, err
		}
		dst = append(dst, s)
	}
	return dst, nil
}

// WritePhylip writes the alignment in sequential relaxed PHYLIP format.
func WritePhylip(w io.Writer, a *Alignment) error {
	if err := a.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d %d\n", a.NTaxa(), a.NSites())
	for i, name := range a.Names {
		bw.WriteString(name)
		bw.WriteByte(' ')
		for _, s := range a.Seqs[i] {
			bw.WriteByte(s.Char())
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
