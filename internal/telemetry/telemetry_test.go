package telemetry

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
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
	r.EmitIteration(1, -1)
	r.Harvest(RankCounters{RankPoolThreads: 4, RankPoolDispatches: 10, RankPoolBlocks: 40, RankPCacheHits: 3, RankPCacheMisses: 4})
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
			r.Harvest(RankCounters{RankIterations: 1})
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
	if rep.Totals[RankIterations] != 1 {
		t.Fatalf("iterations total %d, want the replicas' 1", rep.Totals[RankIterations])
	}

	// The trace must be valid JSONL: one "meta" header first, then one
	// event per span and one "perf" event per rank.
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
		case "perf":
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
	for _, want := range []string{"load imbalance", "comm fraction", "newview", "search iterations"} {
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
	c.Recorder(0).Harvest(RankCounters{RankEngineCalls: 30, RankPCacheHits: 8, RankPCacheMisses: 2, RankTipTipNewviews: 2, RankTipTableEntries: 90, RankSiteRateTableEvals: 1500, RankSiteRateExactEvals: 200, RankSites: 1000, RankLaneSites: 996, RankLaneWidth: 8, RankPSetAllocs: 2,
		RankTraversalSteps: 40, RankTraversalStepsSkipped: 25, RankModelOptRounds: 2, RankModelProbes: 180, RankModelPartitionEvals: 450,
		RankSPRInsertionPlans: 10, RankSPRCandidatesScored: 175, RankSPRVerifications: 3})
	c.Recorder(1).Harvest(RankCounters{RankEngineCalls: 30, RankPCacheHits: 12, RankPCacheMisses: 8, RankTipTipNewviews: 3, RankSiteRateTableEvals: 1400, RankSiteRateExactEvals: 198, RankSites: 600, RankLaneSites: 596, RankLaneWidth: 4, RankPSetAllocs: 5})
	endKernel(c.Recorder(0), KernelSiteRates, c.Recorder(0).Begin())

	rep := c.Finalize(time.Millisecond, 1, []int64{0}, []int64{0})
	if rep.PerRank[0].Counters[RankPCacheHits] != 8 {
		t.Fatalf("rank 0 perf fields: %+v", rep.PerRank[0])
	}
	if rep.PerRank[1].Counters[RankPCacheMisses] != 8 {
		t.Fatalf("rank 1 perf fields: %+v", rep.PerRank[1])
	}
	if want := 20.0 / 30.0; rep.PCacheHitRate != want {
		t.Fatalf("P-cache hit rate %v, want %v", rep.PCacheHitRate, want)
	}
	if rep.PerRank[0].Counters[RankTipTipNewviews] != 2 || rep.PerRank[1].Counters[RankTipTipNewviews] != 3 || rep.PerRank[0].Counters[RankTipTableEntries] != 90 {
		t.Fatalf("tip operand fields: rank 0 %+v, rank 1 %+v", rep.PerRank[0], rep.PerRank[1])
	}
	if rep.ModelProbesPerRound != 90 || rep.Totals[RankModelProbes] != 180 {
		t.Fatalf("model probes per round %v, totals %v", rep.ModelProbesPerRound, rep.Totals)
	}
	if rep.ActivePartitionsPerProbe != 2.5 || rep.Totals[RankModelPartitionEvals] != 450 {
		t.Fatalf("active partitions per probe %v, totals %v", rep.ActivePartitionsPerProbe, rep.Totals)
	}
	if rep.CandidatesPerPrunePoint != 17.5 || rep.Totals[RankSPRCandidatesScored] != 175 || rep.Totals[RankSPRVerifications] != 3 {
		t.Fatalf("candidates per prune point %v, totals %v", rep.CandidatesPerPrunePoint, rep.Totals)
	}
	if rep.Totals[RankTraversalSteps] != 40 || rep.Totals[RankTraversalStepsSkipped] != 25 {
		t.Fatalf("traversal totals: %v", rep.Totals)
	}

	if tab, exact := rep.Totals[RankSiteRateTableEvals], rep.Totals[RankSiteRateExactEvals]; tab != 2900 || exact != 398 || rep.PerRank[1].Counters[RankSiteRateExactEvals] != 198 {
		t.Fatalf("site-rate evaluations %d table, %d exact, rank 1 %+v", tab, exact, rep.PerRank[1])
	}
	if rep.Totals[RankSites] != 1600 || rep.LaneShare != 1592.0/1600.0 || rep.PerRank[1].Counters[RankLaneSites] != 596 {
		t.Fatalf("sites %d, lane share %v, rank 1 %+v", rep.Totals[RankSites], rep.LaneShare, rep.PerRank[1])
	}
	if rep.Totals[RankLaneWidth] != 4 || rep.Totals[RankPSetAllocs] != 7 {
		t.Fatalf("lane width %d (want the narrowest rank's, 4), P sets allocated %d", rep.Totals[RankLaneWidth], rep.Totals[RankPSetAllocs])
	}

	text := rep.String()
	for _, want := range []string{"site-rate table evaluations / exact    2900 / 398", "cache hit rate", "model probes / round", "active partitions / probe", "candidates / prune point", "traversal steps / skipped              40 / 25", "site work in vector lanes                 0.995", "Γ site-lane width                             4", "P-matrix sets allocated                       7"} {
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
			for _, field := range []string{"pcache_hits", "tiptip_newviews", "tip_table_entries", "site_rate_table_evals", "site_rate_exact_evals", "pset_allocs", "sites", "lane_sites", "lane_width", "model_partition_evals", "spr_insertion_plans", "candidates_per_prune_point", "collectives_per_iteration"} {
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
	var counts RankCounters
	for k := range counts {
		counts[k] = int64(k) + 1
	}
	r.Harvest(counts)
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
		"pcache_hits", "pcache_misses", "pcache_resets", "pset_allocs", "tiptip_newviews", "tip_table_entries",
		"site_rate_table_evals", "site_rate_exact_evals", "columns", "sites", "lane_sites", "insertion_rescales", "lane_width",
		"iterations", "model_opt_rounds", "model_probes", "model_partition_evals", "newton_iterations",
		"spr_rounds", "spr_prunes", "spr_insertion_plans", "spr_candidates_scored", "spr_verifications", "spr_improvements",
		"traversal_steps", "traversal_steps_skipped", "batched_gradient_sweeps", "preorder_steps", "preorder_steps_skipped", "gradient_slots_skipped",
	}
	if strings.Join(keys, " ") != strings.Join(want, " ") {
		t.Errorf("per_rank keys\n got %v\nwant %v", keys, want)
	}
}

// TestRankCountersReachEverySink gives every per-rank counter a distinct
// nonzero value on two ranks, the larger on rank 0 for every other
// counter, and follows each to every sink the declaration promises: its
// per_rank key, its "perf" key, its report total under its combine rule,
// a -stats line holding its label and total where it has one, and — a
// summed counter only — its /metrics series. The rows restate the
// declaration, so a counter wired to another's key, rule or series, or
// left out of a sink, fails here.
func TestRankCountersReachEverySink(t *testing.T) {
	sumOf := func(a, b int64) int64 { return a + b }
	maxOf := func(a, b int64) int64 { return max(a, b) }
	minOf := func(a, b int64) int64 { return min(a, b) }
	rows := []struct {
		c       RankCounter
		key     string
		combine func(a, b int64) int64
		shown   bool // on a -stats line
		series  bool
	}{
		{RankEngineCalls, "engine_calls", sumOf, true, true},
		{RankPoolThreads, "pool_threads", maxOf, false, false},
		{RankPoolDispatches, "pool_dispatches", sumOf, true, true},
		{RankPoolBlocks, "pool_blocks", sumOf, false, true},
		{RankPoolWakes, "pool_wakes", sumOf, true, true},
		{RankPoolParks, "pool_parks", sumOf, true, true},
		{RankRecvPolled, "recv_polled", sumOf, true, true},
		{RankRecvParked, "recv_parked", sumOf, true, true},
		{RankPCacheHits, "pcache_hits", sumOf, false, true},
		{RankPCacheMisses, "pcache_misses", sumOf, false, true},
		{RankPCacheResets, "pcache_resets", sumOf, false, true},
		{RankPSetAllocs, "pset_allocs", sumOf, true, true},
		{RankTipTipNewviews, "tiptip_newviews", sumOf, false, true},
		{RankTipTableEntries, "tip_table_entries", sumOf, false, true},
		{RankSiteRateTableEvals, "site_rate_table_evals", sumOf, true, true},
		{RankSiteRateExactEvals, "site_rate_exact_evals", sumOf, true, true},
		{RankColumns, "columns", sumOf, false, true},
		{RankSites, "sites", sumOf, false, true},
		{RankLaneSites, "lane_sites", sumOf, false, true},
		{RankInsertionRescales, "insertion_rescales", sumOf, false, true},
		{RankLaneWidth, "lane_width", minOf, true, false},
		{RankIterations, "iterations", maxOf, true, false},
		{RankModelOptRounds, "model_opt_rounds", maxOf, true, false},
		{RankModelProbes, "model_probes", maxOf, true, false},
		{RankModelPartitionEvals, "model_partition_evals", maxOf, true, false},
		{RankNewtonIters, "newton_iterations", maxOf, true, false},
		{RankSPRRounds, "spr_rounds", maxOf, true, false},
		{RankSPRPrunes, "spr_prunes", maxOf, true, false},
		{RankSPRInsertionPlans, "spr_insertion_plans", maxOf, true, false},
		{RankSPRCandidatesScored, "spr_candidates_scored", maxOf, true, false},
		{RankSPRVerifications, "spr_verifications", maxOf, true, false},
		{RankSPRImprovements, "spr_improvements", maxOf, true, false},
		{RankTraversalSteps, "traversal_steps", maxOf, true, false},
		{RankTraversalStepsSkipped, "traversal_steps_skipped", maxOf, true, false},
		{RankGradientSweeps, "batched_gradient_sweeps", maxOf, true, false},
		{RankPreorderSteps, "preorder_steps", maxOf, true, false},
		{RankPreorderStepsSkipped, "preorder_steps_skipped", maxOf, true, false},
		{RankGradientSlotsSkipped, "gradient_slots_skipped", maxOf, true, false},
	}
	if len(rows) != int(NumRankCounters) {
		t.Fatalf("%d rows for %d counters", len(rows), NumRankCounters)
	}
	value := func(rank int, c RankCounter) int64 { return int64(1000*(1+(rank+int(c))%2) + int(c) + 1) }

	before := scrapeMetrics(t)
	var trace bytes.Buffer
	c := NewCollector(2, []string{"x"}, &trace)
	for rank := 0; rank < 2; rank++ {
		var counts RankCounters
		for k := range counts {
			counts[k] = value(rank, RankCounter(k))
		}
		c.Recorder(rank).Harvest(counts)
	}
	after := scrapeMetrics(t)
	rep := c.Finalize(time.Millisecond, 1, []int64{0}, []int64{0})
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	perRank := doc["per_rank"].([]any)
	stats := strings.Split(rep.String(), "\n")
	perf := perfEvents(t, &trace)
	if len(perf) != 2 {
		t.Fatalf("%d perf events, want 2", len(perf))
	}

	for i, row := range rows {
		if row.c != RankCounter(i) {
			t.Fatalf("row %d is counter %d: rows must follow declaration order", i, row.c)
		}
		v0, v1 := value(0, row.c), value(1, row.c)
		for rank, v := range []int64{v0, v1} {
			if got := perRank[rank].(map[string]any)[row.key]; got != float64(v) {
				t.Errorf("%s: per_rank[%d] holds %v, want %d", row.key, rank, got, v)
			}
			if got := perf[rank][row.key]; got != float64(v) {
				t.Errorf("%s: rank %d's perf event holds %v, want %d", row.key, rank, got, v)
			}
		}
		want := row.combine(v0, v1)
		if got := rep.Totals[row.c]; got != want {
			t.Errorf("%s: report total %d, want %d", row.key, got, want)
		}
		if got := doc[row.key]; got != float64(want) {
			t.Errorf("%s: -stats-json total %v, want %d", row.key, got, want)
		}
		if label := rankCounters[row.c].label; (label != "") != row.shown {
			t.Errorf("%s: labelled %q, want a -stats line %v", row.key, label, row.shown)
		} else if row.shown && !slices.ContainsFunc(stats, func(ln string) bool {
			return strings.Contains(ln, label) && strings.Contains(ln, strconv.FormatInt(want, 10))
		}) {
			t.Errorf("%s: no -stats line holds %q and the total %d:\n%s", row.key, label, want, rep)
		}
		series := "examl_" + row.key + "_total"
		_, present := after[series]
		if present != row.series {
			t.Errorf("%s: /metrics series %s present %v, want %v", row.key, series, present, row.series)
		} else if present && after[series]-before[series] != float64(v0+v1) {
			t.Errorf("%s: %s grew by %v, want %d", row.key, series, after[series]-before[series], v0+v1)
		}
	}

	// A rank whose counters all read 0 omits them from its per_rank entry
	// and still carries every one in its "perf" event.
	trace.Reset()
	c = NewCollector(1, []string{"x"}, &trace)
	c.Recorder(0).Harvest(RankCounters{})
	buf.Reset()
	if err := c.Finalize(time.Millisecond, 1, []int64{0}, []int64{0}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var zero struct {
		PerRank []map[string]any `json:"per_rank"`
	}
	if err := json.Unmarshal(buf.Bytes(), &zero); err != nil {
		t.Fatal(err)
	}
	perf = perfEvents(t, &trace)
	for _, row := range rows {
		if got, ok := zero.PerRank[0][row.key]; ok {
			t.Errorf("%s: a zero per_rank counter is rendered (%v)", row.key, got)
		}
		if got, ok := perf[0][row.key]; got != float64(0) || !ok {
			t.Errorf("%s: a zero counter's perf key holds %v (present %v), want 0", row.key, got, ok)
		}
	}
}

// perfEvents returns the trace's "perf" events in order.
func perfEvents(t *testing.T, trace *bytes.Buffer) []map[string]any {
	t.Helper()
	var evs []map[string]any
	for _, ln := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("trace line %q: %v", ln, err)
		}
		if ev["ev"] == "perf" {
			evs = append(evs, ev)
		}
	}
	return evs
}

// scrapeMetrics returns every unlabelled series of the process-wide
// registry by name.
func scrapeMetrics(t *testing.T) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := metrics.Default().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	series := map[string]float64{}
	for _, ln := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(ln, " ")
		if !ok || strings.HasPrefix(ln, "#") || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", ln, err)
		}
		series[name] = v
	}
	return series
}
