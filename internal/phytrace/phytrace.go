// Package phytrace merges the per-rank JSONL telemetry traces written
// by `examl -trace` (and by the examld daemon's event stream) onto one
// timeline, renders them in the Chrome trace-event format that
// chrome://tracing and Perfetto load directly, and attributes the run's
// wall time: the per-iteration critical path, per-rank Allreduce wait,
// and straggler ranking (docs/OBSERVABILITY.md).
//
// The alignment problem phytrace solves: a multi-process world writes
// one trace file per rank (`-trace x` in net mode produces `x.rank0`,
// `x.rank1`, ...), and every file's timestamps are nanoseconds since
// that process's own collector epoch. Each stream's one-time "meta"
// header carries the epoch as wall-clock nanoseconds, so the merger
// shifts every stream onto the earliest epoch seen. Single-process
// multi-rank traces carry all ranks in one file and need no shift.
package phytrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// Event is one JSONL telemetry line, tolerant of every type the
// collector emits: meta, span, iter, recovery, perf.
type Event struct {
	Ev    string `json:"ev"`
	Rank  int    `json:"rank"`
	Job   string `json:"job"`
	Kind  string `json:"kind"`
	Class string `json:"class"`
	TNS   int64  `json:"t_ns"`
	DurNS int64  `json:"dur_ns"`

	Iter int      `json:"iter"`
	LnL  *float64 `json:"lnl"`

	Ranks       int   `json:"ranks"`
	StartUnixNS int64 `json:"start_unix_ns"`

	Size             int `json:"size"`
	Epoch            int `json:"epoch"`
	ResumedIteration int `json:"resumed_iteration"`
}

// Source is one parsed trace file before merging.
type Source struct {
	Name        string
	FileRank    int   // parsed from a trailing ".rank<N>" (0 otherwise)
	StartUnixNS int64 // 0 when the stream has no meta header
	Events      []Event
}

// Span is one kernel or collective interval on the merged timeline.
type Span struct {
	Rank        int
	Kind, Class string
	Start, Dur  int64 // ns, relative to the earliest collector epoch
}

// IterMark is one per-rank end-of-iteration marker.
type IterMark struct {
	Rank, Iter int
	T          int64
	LnL        float64
	HasLnL     bool
}

// Recovery is one world re-formation event.
type Recovery struct {
	Rank, Size, Epoch, ResumedIteration int
}

// JobTrace is every merged event belonging to one job (the empty job ID
// is the one-shot `examl` run).
type JobTrace struct {
	Job        string
	Spans      []Span
	Iters      []IterMark
	Recoveries []Recovery
}

// Merge is the aligned union of all input traces, grouped by job.
type Merge struct {
	Jobs []*JobTrace // sorted by job ID, the unnamed job first
}

var rankSuffix = regexp.MustCompile(`\.rank(\d+)$`)

// ParseFile reads one JSONL trace file. Unknown event types and
// unparseable lines are skipped, not fatal: a trace cut short by a
// crash (the interesting kind) must still merge.
func ParseFile(path string) (*Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f, path)
}

// Parse reads one JSONL trace stream; name is used for the file-rank
// suffix convention and for error context.
func Parse(r io.Reader, name string) (*Source, error) {
	s := &Source{Name: name}
	if m := rankSuffix.FindStringSubmatch(name); m != nil {
		s.FileRank, _ = strconv.Atoi(m[1])
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			continue
		}
		if ev.Ev == "meta" && s.StartUnixNS == 0 {
			s.StartUnixNS = ev.StartUnixNS
		}
		s.Events = append(s.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", name, err)
	}
	return s, nil
}

// MergeSources aligns the sources onto one timeline and groups events
// by job. The global rank of an event is fileRank + event rank: a
// net-mode process writes a single-rank collector (its events all say
// rank 0) into a ".rank<N>" file, while a single-process multi-rank
// run writes true ranks into one unsuffixed file.
func MergeSources(sources []*Source) *Merge {
	var minStart int64
	for _, s := range sources {
		if s.StartUnixNS > 0 && (minStart == 0 || s.StartUnixNS < minStart) {
			minStart = s.StartUnixNS
		}
	}
	jobs := map[string]*JobTrace{}
	jobOf := func(id string) *JobTrace {
		jt := jobs[id]
		if jt == nil {
			jt = &JobTrace{Job: id}
			jobs[id] = jt
		}
		return jt
	}
	for _, s := range sources {
		var shift int64
		if s.StartUnixNS > 0 {
			shift = s.StartUnixNS - minStart
		}
		for _, ev := range s.Events {
			rank := s.FileRank + ev.Rank
			jt := jobOf(ev.Job)
			switch ev.Ev {
			case "span":
				jt.Spans = append(jt.Spans, Span{
					Rank: rank, Kind: ev.Kind, Class: ev.Class,
					Start: ev.TNS + shift, Dur: ev.DurNS,
				})
			case "iter":
				im := IterMark{Rank: rank, Iter: ev.Iter, T: ev.TNS + shift}
				if ev.LnL != nil {
					im.LnL, im.HasLnL = *ev.LnL, true
				}
				jt.Iters = append(jt.Iters, im)
			case "recovery":
				jt.Recoveries = append(jt.Recoveries, Recovery{
					Rank: rank, Size: ev.Size, Epoch: ev.Epoch,
					ResumedIteration: ev.ResumedIteration,
				})
			}
		}
	}
	m := &Merge{}
	for _, jt := range jobs {
		sort.Slice(jt.Spans, func(i, k int) bool {
			if jt.Spans[i].Start != jt.Spans[k].Start {
				return jt.Spans[i].Start < jt.Spans[k].Start
			}
			return jt.Spans[i].Rank < jt.Spans[k].Rank
		})
		sort.Slice(jt.Iters, func(i, k int) bool {
			if jt.Iters[i].Iter != jt.Iters[k].Iter {
				return jt.Iters[i].Iter < jt.Iters[k].Iter
			}
			return jt.Iters[i].Rank < jt.Iters[k].Rank
		})
		m.Jobs = append(m.Jobs, jt)
	}
	sort.Slice(m.Jobs, func(i, k int) bool { return m.Jobs[i].Job < m.Jobs[k].Job })
	return m
}

// RankIDs returns the sorted set of global ranks present in the trace.
func (jt *JobTrace) RankIDs() []int {
	set := map[int]bool{}
	for _, s := range jt.Spans {
		set[s.Rank] = true
	}
	for _, im := range jt.Iters {
		set[im.Rank] = true
	}
	ranks := make([]int, 0, len(set))
	for r := range set {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	return ranks
}
