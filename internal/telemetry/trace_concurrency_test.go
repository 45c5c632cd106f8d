package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// writeRecorder stands in for the daemon's shared trace sink (an
// *os.File or the worker's trace forwarder): its Write is atomic, and it
// additionally records every individual Write call so the test can
// assert the one-complete-line-per-Write discipline that makes sharing a
// sink across collectors tearing-proof.
type writeRecorder struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	writes []string
}

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes = append(w.writes, string(p))
	return w.buf.Write(p)
}

// TestConcurrentJobTraceNoTearing drives several per-job collectors (the
// service daemon's shape: one Collector per job, all forwarding into one
// sink) from concurrent rank goroutines, with recovery and perf events
// mixed in, and asserts that (a) every Write call the sink saw was
// exactly one complete newline-terminated JSON line, and (b) every line
// parses and carries the right job label. Runs under -race in `make ci`.
func TestConcurrentJobTraceNoTearing(t *testing.T) {
	sink := &writeRecorder{}
	const jobs, ranks, spansPerRank = 4, 3, 50

	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		jobID := fmt.Sprintf("job-%d", j)
		c := NewCollector(ranks, []string{"x", "y"}, sink)
		c.SetJob(jobID)
		for rank := 0; rank < ranks; rank++ {
			wg.Add(1)
			go func(c *Collector, rank int) {
				defer wg.Done()
				r := c.Recorder(rank)
				for i := 0; i < spansPerRank; i++ {
					tok := r.Begin()
					endKernel(r, KernelNewview, tok)
					ct := r.BeginCollective()
					r.EndCollective(1, ct)
					if i%10 == 0 {
						r.EmitIteration(i/10, -1234.5)
					}
				}
				r.SetKernelPerf(KernelPerf{PCacheHits: int64(rank), PCacheMisses: 3})
			}(c, rank)
		}
		wg.Add(1)
		go func(c *Collector) {
			defer wg.Done()
			for e := 0; e < 20; e++ {
				c.EmitRecovery(0, ranks, e, e)
			}
		}(c)
	}
	wg.Wait()

	for _, w := range sink.writes {
		if !strings.HasSuffix(w, "\n") || strings.Count(w, "\n") != 1 {
			t.Fatalf("sink saw a Write that is not exactly one line: %q", w)
		}
	}

	perJob := map[string]int{}
	for _, ln := range strings.Split(strings.TrimSpace(sink.buf.String()), "\n") {
		var ev struct {
			Ev  string `json:"ev"`
			Job string `json:"job"`
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("torn or invalid trace line %q: %v", ln, err)
		}
		if ev.Job == "" {
			t.Fatalf("event lost its job label: %q", ln)
		}
		perJob[ev.Job]++
	}
	// Per job: 1 meta + ranks*(2*spansPerRank spans + 5 iters + 1 perf) + 20 recoveries.
	want := 1 + ranks*(2*spansPerRank+5+1) + 20
	for j := 0; j < jobs; j++ {
		id := fmt.Sprintf("job-%d", j)
		if perJob[id] != want {
			t.Fatalf("job %s has %d events, want %d", id, perJob[id], want)
		}
	}
}

// TestEmitBufferBounded pins the collector's line-buffer bound: an
// oversized event (a pathological job label) must not pin its capacity
// for the rest of the run.
func TestEmitBufferBounded(t *testing.T) {
	var sink bytes.Buffer
	c := NewCollector(1, []string{"x"}, &sink)
	c.SetJob(strings.Repeat("x", 2*emitBufCap))
	c.EmitRecovery(0, 1, 0, 0)
	if cap(c.buf) > emitBufCap {
		t.Fatalf("buffer kept %d bytes after oversized line, bound is %d", cap(c.buf), emitBufCap)
	}
	c.jobFrag = ""
	c.EmitRecovery(0, 1, 1, 0)
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	for _, ln := range lines {
		if !json.Valid([]byte(ln)) {
			t.Fatalf("invalid line after buffer shrink: %q", ln[:min(len(ln), 120)])
		}
	}
}
