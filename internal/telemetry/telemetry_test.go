package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety exercises every Recorder entry point on a nil receiver
// and a nil Collector — the telemetry-off fast path must be inert.
func TestNilSafety(t *testing.T) {
	var c *Collector
	r := c.Recorder(0)
	if r != nil {
		t.Fatalf("nil collector handed out a recorder")
	}
	tok := r.Begin()
	endKernel(r, KernelNewview, tok)
	ct := r.BeginCollective()
	r.EndCollective(0, ct)
	r.Inc(CounterIterations, 1)
	r.SetPool(PoolStats{Threads: 4, Dispatches: 10, Blocks: 40})
	r.SetKernelPerf(KernelPerf{PCacheHits: 3, PCacheMisses: 4})
	if rep := c.Finalize(time.Second, 1, nil, nil); rep != nil {
		t.Fatalf("nil collector produced a report")
	}
}

// endKernel closes a span opened by Begin as an engine call that ran
// kernel class k alone.
func endKernel(r *Recorder, k KernelClass, start int64) {
	var ns [NumKernelClasses]int64
	ns[k] = 1
	r.EndEngineCall(start, &ns)
}

// TestSpansAndReport records spans on two ranks and checks the derived
// metrics of the report, and that the class names given to the collector
// label the trace's collective spans and the report's rows.
func TestSpansAndReport(t *testing.T) {
	var trace bytes.Buffer
	c := NewCollector(2, []string{"a", "b", "c"}, &trace)

	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			r := c.Recorder(rank)
			for i := 0; i < 3; i++ {
				tok := r.Begin()
				time.Sleep(time.Millisecond)
				endKernel(r, KernelNewview, tok)
			}
			tok := r.Begin()
			endKernel(r, KernelEvaluate, tok)
			ct := r.BeginCollective()
			time.Sleep(time.Millisecond)
			r.EndCollective(1, ct)
			r.Inc(CounterIterations, 1)
		}(rank)
	}
	wg.Wait()

	rep := c.Finalize(10*time.Millisecond, 2, []int64{0, 4, 0}, []int64{0, 1024, 0})
	if rep.Ranks != 2 {
		t.Fatalf("ranks = %d", rep.Ranks)
	}
	if got := rep.Kernels[KernelNewview].Ops; got != 6 {
		t.Fatalf("newview ops = %d, want 6", got)
	}
	if rep.Kernels[KernelNewview].NS <= 0 {
		t.Fatalf("newview time not recorded")
	}
	if rep.ImbalanceRatio < 1 {
		t.Fatalf("imbalance ratio %v < 1", rep.ImbalanceRatio)
	}
	if rep.CommFraction <= 0 || rep.CommFraction >= 1 {
		t.Fatalf("comm fraction %v out of (0,1)", rep.CommFraction)
	}
	if len(rep.Classes) != 1 || rep.Classes[0].Name != "b" || rep.Classes[0].Bytes != 1024 {
		t.Fatalf("classes = %+v", rep.Classes)
	}
	if rep.Counters["iterations"] != 1 {
		t.Fatalf("counters = %v", rep.Counters)
	}

	// The trace must be valid JSONL: one "meta" header first, then one
	// event per span.
	lines := strings.Split(strings.TrimSpace(trace.String()), "\n")
	spans, metas := 0, 0
	for i, ln := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("trace line %q: %v", ln, err)
		}
		switch ev["ev"] {
		case "span":
			spans++
			if ev["kind"] == "collective" && ev["class"] != "b" {
				t.Fatalf("collective span of class 1 labelled %v, want b", ev["class"])
			}
		case "meta":
			metas++
			if i != 0 {
				t.Fatalf("meta event at line %d, want first", i)
			}
			if ev["ranks"] != float64(2) {
				t.Fatalf("meta ranks = %v, want 2", ev["ranks"])
			}
			if _, ok := ev["start_unix_ns"]; !ok {
				t.Fatalf("meta event missing start_unix_ns: %v", ev)
			}
		default:
			t.Fatalf("unexpected event %v", ev)
		}
	}
	if spans != 2*(3+1+1) || metas != 1 {
		t.Fatalf("trace has %d spans and %d metas, want 10 and 1", spans, metas)
	}

	// Text and JSON renderings must carry the headline metrics.
	text := rep.String()
	for _, want := range []string{"load imbalance", "comm fraction", "newview", "iterations"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report text missing %q:\n%s", want, text)
		}
	}
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("report JSON round-trip: %v", err)
	}
	if back.ImbalanceRatio != rep.ImbalanceRatio {
		t.Fatalf("JSON imbalance %v != %v", back.ImbalanceRatio, rep.ImbalanceRatio)
	}
}

// TestKernelPerfReport checks the once-per-rank kernel performance
// harvest: per-rank fields, the aggregated P-cache hit rate, the text rendering, and the "perf" trace events.
func TestKernelPerfReport(t *testing.T) {
	var trace bytes.Buffer
	c := NewCollector(2, []string{"x"}, &trace)
	c.Recorder(0).SetKernelPerf(KernelPerf{PCacheHits: 8, PCacheMisses: 2, TipTipNewviews: 2, TipTableEntries: 90, SiteRateTableEvals: 1500, SiteRateExactEvals: 200, Sites: 1000, LaneSites: 996})
	c.Recorder(1).SetKernelPerf(KernelPerf{PCacheHits: 12, PCacheMisses: 8, TipTipNewviews: 3, SiteRateTableEvals: 1400, SiteRateExactEvals: 198, Sites: 600, LaneSites: 596})
	endKernel(c.Recorder(0), KernelSiteRates, c.Recorder(0).Begin())
	c.Recorder(0).Inc(CounterTraversalSteps, 40)
	c.Recorder(0).Inc(CounterTraversalStepsSkipped, 25)
	c.Recorder(0).Inc(CounterModelOptRounds, 2)
	c.Recorder(0).Inc(CounterModelProbes, 180)
	c.Recorder(0).Inc(CounterModelPartitionEvals, 450)
	c.Recorder(0).Inc(CounterSPRInsertionPlans, 10)
	c.Recorder(0).Inc(CounterSPRCandidatesScored, 175)
	c.Recorder(0).Inc(CounterSPRVerifications, 3)

	rep := c.Finalize(time.Millisecond, 1, []int64{0}, []int64{0})
	if rep.PerRank[0].PCacheHits != 8 {
		t.Fatalf("rank 0 perf fields: %+v", rep.PerRank[0])
	}
	if rep.PerRank[1].PCacheMisses != 8 {
		t.Fatalf("rank 1 perf fields: %+v", rep.PerRank[1])
	}
	if want := 20.0 / 30.0; rep.PCacheHitRate != want {
		t.Fatalf("P-cache hit rate %v, want %v", rep.PCacheHitRate, want)
	}
	if rep.PerRank[0].TipTipNewviews != 2 || rep.PerRank[1].TipTipNewviews != 3 || rep.PerRank[0].TipTableEntries != 90 {
		t.Fatalf("tip operand fields: rank 0 %+v, rank 1 %+v", rep.PerRank[0], rep.PerRank[1])
	}
	if rep.ModelProbesPerRound != 90 || rep.Counters["model-probes"] != 180 {
		t.Fatalf("model probes per round %v, counters %v", rep.ModelProbesPerRound, rep.Counters)
	}
	if rep.ActivePartitionsPerProbe != 2.5 || rep.Counters["model-partition-evals"] != 450 {
		t.Fatalf("active partitions per probe %v, counters %v", rep.ActivePartitionsPerProbe, rep.Counters)
	}
	if rep.CandidatesPerPrunePoint != 17.5 || rep.Counters["spr-candidates-scored"] != 175 || rep.Counters["spr-verifications"] != 3 {
		t.Fatalf("candidates per prune point %v, counters %v", rep.CandidatesPerPrunePoint, rep.Counters)
	}
	if rep.Counters["traversal-steps"] != 40 || rep.Counters["traversal-steps-skipped"] != 25 {
		t.Fatalf("traversal counters: %v", rep.Counters)
	}

	if sr := rep.Kernels[KernelSiteRates]; sr.TableEvals != 2900 || sr.ExactEvals != 398 || rep.PerRank[1].SiteRateExactEvals != 198 {
		t.Fatalf("site-rates class %+v, rank 1 %+v", sr, rep.PerRank[1])
	}
	if rep.Sites != 1600 || rep.LaneShare != 1592.0/1600.0 || rep.PerRank[1].LaneSites != 596 {
		t.Fatalf("sites %d, lane share %v, rank 1 %+v", rep.Sites, rep.LaneShare, rep.PerRank[1])
	}
	if other := rep.Kernels[KernelEvaluate]; other.TableEvals != 0 || other.ExactEvals != 0 {
		t.Fatalf("single-site evaluations charged to %+v", other)
	}

	text := rep.String()
	for _, want := range []string{"2900 table + 398 exact single-site evaluations", "cache hit rate", "model probes / round", "active partitions / probe", "candidates / prune point", "traversal-steps-skipped", "site work in vector lanes                 0.995"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report text missing %q:\n%s", want, text)
		}
	}

	perfEvents := 0
	for _, ln := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("trace line %q: %v", ln, err)
		}
		if ev["ev"] == "perf" {
			perfEvents++
			if _, ok := ev["pair_table_entries"]; ok {
				t.Fatalf("perf event has pair_table_entries, but no pair table is built: %v", ev)
			}
			for _, field := range []string{"pcache_hits", "tiptip_newviews", "tip_table_entries", "site_rate_table_evals", "site_rate_exact_evals", "sites", "lane_sites", "model_partition_evals", "spr_insertion_plans", "candidates_per_prune_point", "collectives_per_iteration"} {
				if _, ok := ev[field]; !ok {
					t.Fatalf("perf event missing %s: %v", field, ev)
				}
			}
		}
	}
	if perfEvents != 2 {
		t.Fatalf("trace has %d perf events, want 2", perfEvents)
	}
}

// TestNestedCollectiveRecordedOnce pins the nesting guard: an outer
// collective that internally calls another must account once.
func TestNestedCollectiveRecordedOnce(t *testing.T) {
	c := NewCollector(1, []string{"x", "y"}, nil)
	r := c.Recorder(0)

	outer := r.BeginCollective()
	inner := r.BeginCollective() // e.g. Allreduce's internal Reduce
	time.Sleep(time.Millisecond)
	r.EndCollective(0, inner)
	r.EndCollective(0, outer)

	rep := c.Finalize(time.Millisecond, 1, []int64{1, 0}, []int64{8, 0})
	if ops := rep.PerRank[0].CollectiveOps[0]; ops != 1 {
		t.Fatalf("nested collective recorded %d times, want 1", ops)
	}
	if rep.PerRank[0].CollectiveNS[0] <= 0 {
		t.Fatalf("outer collective span lost")
	}
}

// TestPerRankKeys pins the keys of a -stats-json per_rank entry, and
// their order, for a rank every counter of which is nonzero.
func TestPerRankKeys(t *testing.T) {
	c := NewCollector(1, []string{"x"}, nil)
	r := c.Recorder(0)
	endKernel(r, KernelNewview, r.Begin())
	r.EndCollective(0, r.BeginCollective())
	r.SetPool(PoolStats{EngineCalls: 1, Threads: 2, Dispatches: 3, Blocks: 4, Wakes: 5, Parks: 6})
	r.SetRecv(RecvStats{Polled: 7, Parked: 8})
	r.SetKernelPerf(KernelPerf{PCacheHits: 1, PCacheMisses: 2, TipTipNewviews: 3, TipTableEntries: 4, SiteRateTableEvals: 5, SiteRateExactEvals: 6, Sites: 7, LaneSites: 8})
	var buf bytes.Buffer
	if err := c.Finalize(time.Millisecond, 2, []int64{1}, []int64{8}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PerRank []json.RawMessage `json:"per_rank"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(doc.PerRank[0]))
	var keys []string
	if _, err := dec.Token(); err != nil { // the object's '{'
		t.Fatal(err)
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var val json.RawMessage
		if err := dec.Decode(&val); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key.(string))
	}
	want := []string{
		"rank", "kernel_ns", "kernel_ops", "collective_ns", "collective_ops", "compute_ns", "comm_ns",
		"engine_calls", "pool_threads", "pool_dispatches", "pool_blocks", "pool_wakes", "pool_parks",
		"recv_polled", "recv_parked",
		"pcache_hits", "pcache_misses", "tiptip_newviews", "tip_table_entries",
		"site_rate_table_evals", "site_rate_exact_evals", "sites", "lane_sites",
	}
	if strings.Join(keys, " ") != strings.Join(want, " ") {
		t.Errorf("per_rank keys\n got %v\nwant %v", keys, want)
	}
}
