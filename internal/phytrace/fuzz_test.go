package phytrace

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzTraceParse: a trace file is whatever a run (or a crash, or an
// editor) left behind. Two arbitrary JSONL streams, read as the two
// files of a net-mode run, go through Parse, MergeSources, Analyze,
// WriteReport and WriteChromeTrace; negative or huge ranks, durations
// and times must never panic, and the Chrome trace must be one JSON
// document.
func FuzzTraceParse(f *testing.F) {
	var smoke [2][]byte
	for i, name := range []string{"smoke.jsonl.rank0", "smoke.jsonl.rank1"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		smoke[i] = raw
	}
	f.Add(smoke[0], smoke[1])
	f.Add(smoke[0], []byte{})
	f.Add([]byte(`{"ev":"span","rank":-9223372036854775808,"kind":"kernel","t_ns":9223372036854775807,"dur_ns":9223372036854775807}`+"\n"+
		`{"ev":"iter","rank":-3,"iter":-1,"t_ns":-9223372036854775808}`),
		[]byte(`{"ev":"meta","start_unix_ns":-1}`+"\n"+`{"ev":"span","rank":9223372036854775807,"kind":"collective","dur_ns":-5}`))

	f.Fuzz(func(t *testing.T, rank0, rank1 []byte) {
		var sources []*Source
		for i, raw := range [][]byte{rank0, rank1} {
			s, err := Parse(bytes.NewReader(raw), []string{"fuzz.jsonl.rank0", "fuzz.jsonl.rank1"}[i])
			if err != nil {
				return
			}
			sources = append(sources, s)
		}
		m := MergeSources(sources)
		var analyses []*Analysis
		for _, jt := range m.Jobs {
			a := Analyze(jt)
			a.WriteReport(io.Discard)
			analyses = append(analyses, a)
		}
		var chrome bytes.Buffer
		if err := WriteChromeTrace(&chrome, m, analyses); err != nil {
			t.Fatalf("chrome trace: %v", err)
		}
		if !json.Valid(chrome.Bytes()) {
			t.Fatalf("chrome trace is not JSON: %s", chrome.Bytes())
		}
	})
}
