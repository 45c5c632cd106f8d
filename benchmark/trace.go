package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from outside it. IDs are
// unique within (run, rank); Parent is -1 for a rank's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps one rank's spans in memory. A rank is driven by one
// goroutine at a time, so begin/end nest like calls and need no lock; the
// open-span stack names each new span's parent.
type recorder struct {
	rank  int
	epoch time.Time
	spans []span
	stack []int
}

func (r *recorder) begin(name string) {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Rank: r.rank, Start: int64(time.Since(r.epoch))})
	r.stack = append(r.stack, id)
}

func (r *recorder) end() {
	top := len(r.stack) - 1
	r.spans[r.stack[top]].End = int64(time.Since(r.epoch))
	r.stack = r.stack[:top]
}

// layer is the aggregate of one span name on one rank.
type layer struct {
	calls int64
	total time.Duration // inclusive: the spans' own durations
	self  time.Duration // exclusive: total minus what direct children cover
}

// aggregate folds one rank's spans by name. Every span's duration is its
// self time plus its direct children's durations, so the self times of
// all spans sum to the root's duration exactly; the root's own self time
// is the part of wall no layer span covers — the unattributed residual.
func aggregate(spans []span) (layers map[string]*layer, wall, residual time.Duration) {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		d := time.Duration(s.End - s.Start)
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	layers = make(map[string]*layer)
	for i, s := range spans {
		if s.Parent < 0 {
			wall, residual = time.Duration(s.End-s.Start), self[i]
			continue
		}
		l := layers[s.Name]
		if l == nil {
			l = &layer{}
			layers[s.Name] = l
		}
		l.calls++
		l.total += time.Duration(s.End - s.Start)
		l.self += self[i]
	}
	return layers, wall, residual
}

// writeSpans appends every rank's spans of one traced op as JSONL.
func writeSpans(dir, runID string, recs []*recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, runID+".jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(struct {
				Run string `json:"run"`
				span
			}{runID, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
