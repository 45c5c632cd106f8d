package phytrace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// loadSmoke parses the handcrafted 2-rank net-mode trace: rank 1's
// collector epoch is 0.5 ms after rank 0's, rank 1 is the straggler of
// iteration 1 (3 ms vs 2 ms of kernel work) and rank 0 of iteration 2
// (2.5 ms vs 1 ms).
func loadSmoke(t *testing.T) *Merge {
	t.Helper()
	var sources []*Source
	for _, name := range []string{"smoke.jsonl.rank0", "smoke.jsonl.rank1"} {
		s, err := ParseFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, s)
	}
	if sources[0].FileRank != 0 || sources[1].FileRank != 1 {
		t.Fatalf("file ranks = %d,%d", sources[0].FileRank, sources[1].FileRank)
	}
	return MergeSources(sources)
}

func TestMergeAlignsEpochs(t *testing.T) {
	m := loadSmoke(t)
	if len(m.Jobs) != 1 {
		t.Fatalf("jobs = %d, want 1", len(m.Jobs))
	}
	jt := m.Jobs[0]
	if got := jt.RankIDs(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("ranks = %v", got)
	}
	// Rank 1's epoch is 500 µs later, so its first span (local t=0)
	// lands at 500000 ns on the merged timeline.
	var rank1First int64 = -1
	for _, s := range jt.Spans {
		if s.Rank == 1 && (rank1First < 0 || s.Start < rank1First) {
			rank1First = s.Start
		}
	}
	if rank1First != 500000 {
		t.Fatalf("rank 1 first span at %d ns, want 500000 (epoch shift)", rank1First)
	}
	if len(jt.Spans) != 8 {
		t.Fatalf("spans = %d, want 8", len(jt.Spans))
	}
}

func TestAnalyzeCriticalPathAndStragglers(t *testing.T) {
	m := loadSmoke(t)
	a := Analyze(m.Jobs[0])

	if len(a.Iterations) != 2 {
		t.Fatalf("iterations = %d, want 2", len(a.Iterations))
	}
	// Iteration 1: max work 3 ms (rank 1) + min collective 0.1 ms.
	// Iteration 2: max work 2.5 ms (rank 0) + min collective 0.8 ms.
	if got := a.Iterations[0].CriticalNS; got != 3_100_000 {
		t.Fatalf("iter 1 critical = %d, want 3100000", got)
	}
	if got := a.Iterations[1].CriticalNS; got != 3_300_000 {
		t.Fatalf("iter 2 critical = %d, want 3300000", got)
	}
	if a.CriticalPathNS != 6_400_000 {
		t.Fatalf("critical path = %d, want 6400000", a.CriticalPathNS)
	}
	if a.Iterations[0].Straggler != 1 || a.Iterations[1].Straggler != 0 {
		t.Fatalf("stragglers = %d,%d want 1,0",
			a.Iterations[0].Straggler, a.Iterations[1].Straggler)
	}
	// Wait attribution: iteration 1 charges rank 0 with 0.9 ms of
	// waiting (1 ms collective vs the 0.1 ms floor); iteration 2
	// charges rank 1 with 1.2 ms.
	if got := a.Totals[0].WaitNS; got != 900_000 {
		t.Fatalf("rank 0 wait = %d, want 900000", got)
	}
	if got := a.Totals[1].WaitNS; got != 1_200_000 {
		t.Fatalf("rank 1 wait = %d, want 1200000", got)
	}
	if a.Totals[0].StragglerIters != 1 || a.Totals[1].StragglerIters != 1 {
		t.Fatalf("straggler counts = %d,%d want 1,1",
			a.Totals[0].StragglerIters, a.Totals[1].StragglerIters)
	}
	if !a.Iterations[1].HasLnL || a.Iterations[1].LnL != -1230.125 {
		t.Fatalf("iter 2 lnl = %v", a.Iterations[1].LnL)
	}
	if a.Iterations[0].Imbalance != 1.2 { // 3 / mean(3,2)
		t.Fatalf("iter 1 imbalance = %v, want 1.2", a.Iterations[0].Imbalance)
	}
}

func TestAnalyzeWithoutIterMarkersStillAttributes(t *testing.T) {
	// A truncated trace (crash before the first iteration finished)
	// must still produce a nonzero critical path via the synthetic
	// single window.
	src, err := Parse(strings.NewReader(
		`{"ev":"span","rank":0,"kind":"kernel","class":"newview","t_ns":0,"dur_ns":1000}`+"\n"+
			`{"ev":"span","rank":1,"kind":"kernel","class":"newview","t_ns":0,"dur_ns":3000}`+"\n"),
		"truncated.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(MergeSources([]*Source{src}).Jobs[0])
	if a.CriticalPathNS != 3000 {
		t.Fatalf("critical path = %d, want 3000", a.CriticalPathNS)
	}
}

func TestMergeSplitsJobs(t *testing.T) {
	// A daemon stream interleaves several jobs on one sink; each must
	// become its own trace process.
	src, err := Parse(strings.NewReader(
		`{"ev":"span","rank":0,"kind":"kernel","class":"newview","t_ns":0,"dur_ns":10,"job":"j1"}`+"\n"+
			`{"ev":"span","rank":0,"kind":"kernel","class":"newview","t_ns":5,"dur_ns":10,"job":"j2"}`+"\n"),
		"daemon.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	m := MergeSources([]*Source{src})
	if len(m.Jobs) != 2 || m.Jobs[0].Job != "j1" || m.Jobs[1].Job != "j2" {
		t.Fatalf("jobs = %+v", m.Jobs)
	}
}

// TestChromeTraceGolden renders the smoke merge and pins the exact
// Chrome trace JSON (testdata/smoke.chrome.golden.json; refresh with
// -update-golden). It also re-parses the output and checks the
// structural contract chrome://tracing relies on.
func TestChromeTraceGolden(t *testing.T) {
	m := loadSmoke(t)
	a := Analyze(m.Jobs[0])
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, m, []*Analysis{a}); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "smoke.chrome.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace diverged from golden (refresh with -update-golden):\n%s", buf.String())
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	counts := map[string]int{}
	threadNames := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		counts[ev.Ph]++
		if ev.Ph == "M" && ev.Name == "thread_name" {
			threadNames[ev.TID] = true
		}
		if ev.Ph == "X" && ev.Dur <= 0 {
			t.Fatalf("complete event without duration: %+v", ev)
		}
	}
	if counts["X"] != 8 {
		t.Fatalf("complete events = %d, want 8", counts["X"])
	}
	if counts["i"] != 4 {
		t.Fatalf("instant events = %d, want 4 iter markers", counts["i"])
	}
	if counts["C"] == 0 {
		t.Fatal("no counter events (imbalance/lnl tracks missing)")
	}
	if !threadNames[0] || !threadNames[1] {
		t.Fatalf("thread_name metadata missing a rank: %v", threadNames)
	}
}

func TestReportMentionsCriticalPathAndStraggler(t *testing.T) {
	m := loadSmoke(t)
	a := Analyze(m.Jobs[0])
	var buf bytes.Buffer
	a.WriteReport(&buf)
	out := buf.String()
	for _, want := range []string{"critical path: 6.40 ms", "straggler", "imbalance timeline"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
