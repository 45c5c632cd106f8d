// Package telemetry is the repo's low-overhead, determinism-safe
// instrumentation layer: per-rank wall-clock spans for the three
// likelihood kernel classes (newview / evaluate / derivatives, plus the
// PSR site-rate pipeline), time-in-collective vs. time-in-compute,
// search-progress counters, and thread-pool utilization — the measurement
// substrate behind the paper's evaluation (Table I, Figs. 3–4), which
// argues for the de-centralized scheme entirely through such metrics.
//
// Two properties are load-bearing (docs/OBSERVABILITY.md):
//
//  1. Determinism safety. Telemetry is collected strictly out-of-band:
//     recorders only read clocks and bump private per-rank counters, never
//     touching any value that feeds a likelihood, a reduction, or the
//     search trajectory. A run with telemetry enabled is bit-identical
//     to the same run without it (asserted by tests).
//
//  2. Nil-cost when off. Every Recorder method is safe on a nil receiver
//     and returns after a single pointer check, and no clock is read —
//     instrumented code paths pay essentially nothing when telemetry is
//     disabled.
//
// A Collector owns one Recorder per rank plus an optional shared JSONL
// trace sink; each Recorder is used by exactly one rank goroutine (the
// same single-goroutine discipline mpi.Comm has), so recording needs no
// locks. Finalize aggregates the recorders into a Report after the world
// has joined.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"time"
)

// KernelClass labels a likelihood-kernel span.
type KernelClass int

// The three kernel classes of the likelihood library, plus the two
// pipelines that run them internally but are accounted as their own
// phases: the PSR per-site-rate optimization (like the paper's
// "additional CAT-model work") and the SPR insertion plan.
const (
	// KernelNewview is CLV recomputation (Felsenstein pruning).
	KernelNewview KernelClass = iota
	// KernelEvaluate is log-likelihood evaluation at a virtual root.
	KernelEvaluate
	// KernelDerivatives is sum-table preparation plus Newton derivative
	// evaluation for branch-length optimization.
	KernelDerivatives
	// KernelSiteRates is the PSR per-site rate optimization pipeline.
	KernelSiteRates
	// KernelInsertion is one SPR insertion plan: its two traversals and
	// the score of every regraft candidate of a prune point.
	KernelInsertion

	// NumKernelClasses is the number of distinct kernel classes.
	NumKernelClasses
)

// String implements fmt.Stringer.
func (k KernelClass) String() string {
	switch k {
	case KernelNewview:
		return "newview"
	case KernelEvaluate:
		return "evaluate"
	case KernelDerivatives:
		return "derivatives"
	case KernelSiteRates:
		return "site-rates"
	case KernelInsertion:
		return "insert"
	}
	return fmt.Sprintf("KernelClass(%d)", int(k))
}

// Collector owns the per-rank recorders of one run and the optional
// shared JSONL trace sink. A nil *Collector is valid and disables all
// instrumentation (every Recorder it hands out is nil).
type Collector struct {
	start time.Time
	recs  []*Recorder
	// classNames[i] labels traffic class i in span events, metric labels
	// and the report; collMetrics[i] is that label's counter pair.
	classNames  []string
	collMetrics []spanMetrics

	// jobFrag is the pre-rendered `,"job":"<id>"` JSON fragment appended
	// to every trace event when the collector is namespaced to a job
	// (SetJob). Empty for plain runs, so the event format is unchanged.
	jobFrag string

	mu       sync.Mutex
	trace    io.Writer
	buf      []byte // reusable line buffer, guarded by mu
	metaSent bool   // the one-time "meta" header event went out
}

// emitBufCap bounds the reusable line buffer: a line that grew past it
// (a pathological job label) is not kept around for the rest of the run.
const emitBufCap = 64 << 10

// SetJob namespaces every JSONL event this collector emits with a
// `"job"` field. The multi-job service daemon (cmd/examld) sets it to
// the job ID so concurrent jobs sharing a sink never interleave
// unattributable events; one-shot runs leave it empty and emit the
// historical event format. Call it before the run starts; nil-safe.
func (c *Collector) SetJob(id string) {
	if c == nil || id == "" {
		return
	}
	frag, err := json.Marshal(id)
	if err != nil {
		return
	}
	c.jobFrag = `,"job":` + string(frag)
}

// NewCollector provisions recorders for `ranks` ranks and collective
// timing slots for the traffic classes classNames labels (classNames[i]
// labels class i: mpi.ClassNames() for the repo's runtime — telemetry
// deliberately does not import mpi). trace, when non-nil, receives the
// JSONL event stream; writes are serialized internally.
func NewCollector(ranks int, classNames []string, trace io.Writer) *Collector {
	c := &Collector{
		start:       time.Now(),
		recs:        make([]*Recorder, ranks),
		classNames:  append([]string(nil), classNames...),
		collMetrics: make([]spanMetrics, len(classNames)),
		trace:       trace,
	}
	for i, name := range classNames {
		c.collMetrics[i] = spanMetrics{seconds: collSecondsVec.With(name), ops: collOpsVec.With(name)}
	}
	for r := range c.recs {
		c.recs[r] = &Recorder{
			col:     c,
			rank:    r,
			collNS:  make([]int64, len(classNames)),
			collOps: make([]int64, len(classNames)),
		}
	}
	return c
}

// Recorder returns rank's recorder; nil on a nil Collector or an
// out-of-range rank, so callers can wire telemetry unconditionally.
func (c *Collector) Recorder(rank int) *Recorder {
	if c == nil || rank < 0 || rank >= len(c.recs) {
		return nil
	}
	return c.recs[rank]
}

// emitLine formats one JSONL event and hands it to the trace sink as a
// SINGLE Write call, under the collector's lock. That single-write
// discipline is what keeps lines whole even when several collectors (the
// service daemon runs one per job) funnel into one shared writer whose
// own Write is atomic (an *os.File, the daemon's trace forwarder): the
// lock serializes writers within a collector, the one-Write-per-line
// rule prevents tearing across collectors. The first line is preceded by
// a one-time "meta" header event carrying the rank count and the
// collector's wall-clock epoch, which cmd/phytrace uses to align traces
// from different processes onto one timeline.
func (c *Collector) emitLine(format string, args ...any) {
	if c.trace == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.metaSent {
		c.metaSent = true
		c.buf = fmt.Appendf(c.buf[:0], "{\"ev\":\"meta\",\"ranks\":%d,\"start_unix_ns\":%d%s}\n",
			len(c.recs), c.start.UnixNano(), c.jobFrag)
		c.trace.Write(c.buf)
	}
	c.buf = fmt.Appendf(c.buf[:0], format, args...)
	c.buf = append(c.buf, '\n')
	c.trace.Write(c.buf)
	if cap(c.buf) > emitBufCap {
		c.buf = nil
	}
}

// emit appends one JSONL span event to the trace sink (no-op without
// one). Hand-rolled formatting keeps the hot path free of reflection.
func (c *Collector) emit(rank int, kind, class string, startNS, durNS int64) {
	c.emitLine("{\"ev\":\"span\",\"rank\":%d,\"kind\":%q,\"class\":%q,\"t_ns\":%d,\"dur_ns\":%d%s}",
		rank, kind, class, startNS, durNS, c.jobFrag)
}

// EmitRecovery appends a JSONL "recovery" event: the fault-tolerant
// network driver (fault.RunNet) calls it after the world re-forms, so a
// job's event stream records every migration epoch alongside its spans.
// resumedIteration is 0 when the failure hit before the first completed
// iteration (fresh restart on the re-formed world). Nil-safe no-op.
func (c *Collector) EmitRecovery(rank, size, epoch, resumedIteration int) {
	if c == nil {
		return
	}
	c.emitLine("{\"ev\":\"recovery\",\"rank\":%d,\"size\":%d,\"epoch\":%d,\"resumed_iteration\":%d%s}",
		rank, size, epoch, resumedIteration, c.jobFrag)
}

// Recorder is one rank's instrumentation endpoint. It must be used by a
// single goroutine (the rank's own), exactly like mpi.Comm. All methods
// are nil-safe no-ops, which is the telemetry-off fast path.
type Recorder struct {
	col  *Collector
	rank int

	kernelNS  [NumKernelClasses]int64
	kernelOps [NumKernelClasses]int64

	collNS    []int64
	collOps   []int64
	collDepth int

	// counts are the rank's per-rank counters (Harvest).
	counts RankCounters
}

// now returns nanoseconds since the collector's start (monotonic).
func (r *Recorder) now() int64 { return int64(time.Since(r.col.start)) }

// Begin opens a kernel span; pass the token to EndEngineCall. Returns 0
// on a nil recorder without reading the clock.
func (r *Recorder) Begin() int64 {
	if r == nil {
		return 0
	}
	return r.now()
}

// EndEngineCall closes the span of one engine call — opened by Begin
// before the call was staged — whose operations ran fused inside one pool
// dispatch. ns holds what the rank's workers measured per kernel class
// while they ran the call's items (CPU time, summed over workers); the
// call's wall time is split over the classes in that proportion and
// recorded as one span per class, laid end to end from start, so the
// class rows still add up to the time the rank spent in engine calls. A
// call in which nothing ran (every partition masked out) records nothing.
func (r *Recorder) EndEngineCall(start int64, ns *[NumKernelClasses]int64) {
	if r == nil {
		return
	}
	var total int64
	for _, v := range ns {
		total += v
	}
	if total == 0 {
		return
	}
	wall := r.now() - start
	for k, v := range ns {
		if v == 0 {
			continue
		}
		dur := int64(float64(wall) * float64(v) / float64(total))
		r.kernelNS[k] += dur
		r.kernelOps[k]++
		kernelMetrics[k].seconds.Add(float64(dur) / 1e9)
		kernelMetrics[k].ops.Inc()
		r.col.emit(r.rank, "kernel", KernelClass(k).String(), start, dur)
		start += dur
	}
}

// BeginCollective opens a collective span; pass the token to
// EndCollective. Nested collectives (an Allreduce built from a Reduce
// plus a broadcast) are recorded once, at the outermost call: inner
// spans return a sentinel and are skipped by EndCollective.
func (r *Recorder) BeginCollective() int64 {
	if r == nil {
		return 0
	}
	r.collDepth++
	if r.collDepth > 1 {
		return -1
	}
	return r.now()
}

// EndCollective closes a collective span of the given traffic class
// (an mpi.CommClass value; telemetry stores it as a plain index into the
// collector's class names).
func (r *Recorder) EndCollective(class int, start int64) {
	if r == nil {
		return
	}
	r.collDepth--
	if start < 0 {
		return
	}
	if class < 0 || class >= len(r.collNS) {
		return
	}
	end := r.now()
	r.collNS[class] += end - start
	r.collOps[class]++
	m := r.col.collMetrics[class]
	m.seconds.Add(float64(end-start) / 1e9)
	m.ops.Inc()
	r.col.emit(r.rank, "collective", r.col.classNames[class], start, end-start)
}

// EmitIteration appends a JSONL "iter" event marking the completion of
// one outer search iteration at the current log-likelihood. cmd/phytrace
// uses these markers to cut each rank's span stream into per-iteration
// windows for critical-path and straggler attribution. Recorder 0 alone
// — rank 0 in process, the one recorder of a TCP process — adds it to
// examl_search_iterations_total, so an iteration counts once however many
// replicas ran it. Nil-safe no-op.
func (r *Recorder) EmitIteration(iter int, lnl float64) {
	if r == nil {
		return
	}
	if r.rank == 0 {
		iterationsTotal.Inc()
	}
	if c := r.col; c != nil && c.trace != nil {
		c.emitLine("{\"ev\":\"iter\",\"rank\":%d,\"iter\":%d,\"lnl\":%s,\"t_ns\":%d%s}",
			r.rank, iter, jsonFloat(lnl), r.now(), c.jobFrag)
	}
}

// RankCounter labels a per-rank counter: a count one rank's engine, pool,
// transport or search keeps for the whole run, read once, when the rank's
// body has returned (enginecore's run driver), and handed to Harvest. Each
// is declared once, by its entry below and its row of rankCounters, and
// every sink renders it from that declaration: the -stats-json per_rank
// entry (omitted at 0), the "perf" event (present at 0), the report's
// Totals, a -stats line and, for a summed counter, the /metrics series
// examl_<key>_total. docs/OBSERVABILITY.md says what each one means.
type RankCounter int

// The per-rank counters, in the order of their keys in every sink.
const (
	RankEngineCalls        RankCounter = iota // engine calls: Local methods that stage and flush
	RankPoolThreads                           // the rank's thread count, 1 when serial
	RankPoolDispatches                        // engine calls dispatched to the worker pool
	RankPoolBlocks                            // (kernel, block) items those dispatches carried
	RankPoolWakes                             // parked workers a dispatch woke
	RankPoolParks                             // times a worker's poll budget ran out and it parked
	RankRecvPolled                            // in-process receives served by polling
	RankRecvParked                            // in-process receives that parked (TCP receives are not counted)
	RankPCacheHits                            // P-matrix cache hits
	RankPCacheMisses                          // P-matrix cache misses
	RankPCacheResets                          // P-matrix cache resets, each after a parameter change
	RankPSetAllocs                            // P-matrix sets carved from new store storage
	RankTipTipNewviews                        // tip-tip Newviews: the cherries recomputed
	RankTipTableEntries                       // (category, code) tip-table entries plus prep-table codes filled
	RankSiteRateTableEvals                    // PSR rate-scan single-site evaluations read from the rate table
	RankSiteRateExactEvals                    // PSR rate-scan single-site evaluations at an off-grid rate
	RankColumns                               // kernel column updates (pattern × category), P-matrix set-up included
	RankSites                                 // sites of Newview, evaluation and insertion-score operations
	RankLaneSites                             // those of them computed in vector lanes
	RankInsertionRescales                     // insertion-score sites over a rescaled inserted column
	RankLaneWidth                             // the rank's Γ site-lane width: 8, 4 or 0 (the Go loops)

	// The search's counters: every replica of the decentralized scheme
	// counts the same, a fork-join worker 0, so their max is the search's.
	RankIterations            // completed outer search iterations
	RankModelOptRounds        // model-parameter optimization rounds
	RankModelProbes           // model-parameter probes: SetShared + forced traversal + evaluation
	RankModelPartitionEvals   // partitions those probes evaluated, only those whose candidate changed
	RankNewtonIters           // Newton steps over all branch visits
	RankSPRRounds             // completed lazy-SPR sweeps
	RankSPRPrunes             // subtree prune attempts
	RankSPRInsertionPlans     // insertion plans: prune points that had candidates, one engine call each
	RankSPRCandidatesScored   // regraft candidates those plans scored
	RankSPRVerifications      // best candidates verified exactly
	RankSPRImprovements       // accepted (verified) SPR moves
	RankTraversalSteps        // CLV steps the search's full-tree evaluations scheduled
	RankTraversalStepsSkipped // CLV steps those evaluations skipped, reusing clean CLVs
	RankGradientSweeps        // branch-length smoothing sweeps
	RankPreorderSteps         // pre-order steps those sweeps scheduled
	RankPreorderStepsSkipped  // pre-order steps a Newton loop's later iterations skipped
	RankGradientSlotsSkipped  // (edge, class) derivative slots skipped as converged

	// NumRankCounters is the number of per-rank counters.
	NumRankCounters
)

// RankCounters is one reading of every per-rank counter, indexed by
// RankCounter: the table a rank's engine, kernels and transport count
// into.
type RankCounters [NumRankCounters]int64

// Add adds every counter of o to c: how a rank's kernels' tables make
// its engine's, and how its engine's and its transport's, which fill
// different counters, make the rank's.
func (c *RankCounters) Add(o RankCounters) {
	for k, v := range o {
		c[k] += v
	}
}

// appendJSON appends `,"key":value` for every counter in declaration
// order, or only for the nonzero ones with omitZero.
func (c *RankCounters) appendJSON(b []byte, omitZero bool) []byte {
	for k, v := range c {
		if v != 0 || !omitZero {
			b = fmt.Appendf(b, ",%q:%d", rankCounters[k].key, v)
		}
	}
	return b
}

// combine is how the ranks' readings of a counter make the run's total.
type combine uint8

const (
	combineSum combine = iota
	combineMax
	combineMin
)

// rankCounters declares every per-rank counter: its JSON key, how ranks
// combine it, its part of the label of the -stats line it is printed on
// (none without one) and that line, named by the counter that heads it,
// and the help of its /metrics series (summed counters only: a thread
// count or a lane width is no count to add up, and a replica's search
// counts repeat another's).
var rankCounters = [NumRankCounters]struct {
	key     string
	combine combine
	label   string
	line    RankCounter
	help    string
}{
	RankEngineCalls:        {key: "engine_calls", label: "engine calls", line: RankEngineCalls, help: "Engine calls executed"},
	RankPoolThreads:        {key: "pool_threads", combine: combineMax},
	RankPoolDispatches:     {key: "pool_dispatches", label: "pool dispatches", line: RankEngineCalls, help: "Engine calls dispatched to a rank's worker pool"},
	RankPoolBlocks:         {key: "pool_blocks", help: "(Kernel, block) items the pool dispatches carried"},
	RankPoolWakes:          {key: "pool_wakes", label: "wakes", line: RankEngineCalls, help: "Parked pool workers woken by a dispatch"},
	RankPoolParks:          {key: "pool_parks", label: "parks", line: RankEngineCalls, help: "Times a pool worker's poll budget ran out and it parked"},
	RankRecvPolled:         {key: "recv_polled", label: "receives polled", line: RankRecvPolled, help: "In-process receives served by polling the peer's channel"},
	RankRecvParked:         {key: "recv_parked", label: "parked", line: RankRecvPolled, help: "In-process receives that parked on the peer's channel"},
	RankPCacheHits:         {key: "pcache_hits", help: "P-matrix cache hits"},
	RankPCacheMisses:       {key: "pcache_misses", help: "P-matrix cache misses"},
	RankPCacheResets:       {key: "pcache_resets", help: "P-matrix cache resets, each after a parameter change"},
	RankPSetAllocs:         {key: "pset_allocs", label: "P-matrix sets allocated", line: RankPSetAllocs, help: "P-matrix sets carved from new P-matrix store storage"},
	RankTipTipNewviews:     {key: "tiptip_newviews", help: "Newviews of two tips (cherries)"},
	RankTipTableEntries:    {key: "tip_table_entries", help: "Tip- and prep-table entries filled"},
	RankSiteRateTableEvals: {key: "site_rate_table_evals", label: "site-rate table evaluations", line: RankSiteRateTableEvals, help: "Rate-scan single-site evaluations read from the rate table"},
	RankSiteRateExactEvals: {key: "site_rate_exact_evals", label: "exact", line: RankSiteRateTableEvals, help: "Rate-scan single-site evaluations at an off-grid rate"},
	RankColumns:            {key: "columns", help: "Kernel column updates (pattern × category), P-matrix set-up included: the cost model's compute volume"},
	RankSites:              {key: "sites", help: "Sites of Newview, evaluation and insertion-score operations"},
	RankLaneSites:          {key: "lane_sites", help: "Sites of those operations computed in vector lanes"},
	RankInsertionRescales:  {key: "insertion_rescales", help: "Insertion-score sites computed over a rescaled inserted column"},
	RankLaneWidth:          {key: "lane_width", combine: combineMin, label: "Γ site-lane width", line: RankLaneWidth},

	RankIterations:            {key: "iterations", combine: combineMax, label: "search iterations", line: RankIterations},
	RankModelOptRounds:        {key: "model_opt_rounds", combine: combineMax, label: "model rounds", line: RankIterations},
	RankModelProbes:           {key: "model_probes", combine: combineMax, label: "model probes", line: RankModelProbes},
	RankModelPartitionEvals:   {key: "model_partition_evals", combine: combineMax, label: "partition evaluations", line: RankModelProbes},
	RankNewtonIters:           {key: "newton_iterations", combine: combineMax, label: "Newton steps", line: RankNewtonIters},
	RankSPRRounds:             {key: "spr_rounds", combine: combineMax, label: "SPR rounds", line: RankSPRRounds},
	RankSPRPrunes:             {key: "spr_prunes", combine: combineMax, label: "prunes", line: RankSPRRounds},
	RankSPRInsertionPlans:     {key: "spr_insertion_plans", combine: combineMax, label: "insertion plans", line: RankSPRRounds},
	RankSPRCandidatesScored:   {key: "spr_candidates_scored", combine: combineMax, label: "SPR candidates", line: RankSPRCandidatesScored},
	RankSPRVerifications:      {key: "spr_verifications", combine: combineMax, label: "verified", line: RankSPRCandidatesScored},
	RankSPRImprovements:       {key: "spr_improvements", combine: combineMax, label: "accepted", line: RankSPRCandidatesScored},
	RankTraversalSteps:        {key: "traversal_steps", combine: combineMax, label: "traversal steps", line: RankTraversalSteps},
	RankTraversalStepsSkipped: {key: "traversal_steps_skipped", combine: combineMax, label: "skipped", line: RankTraversalSteps},
	RankGradientSweeps:        {key: "batched_gradient_sweeps", combine: combineMax, label: "smoothing sweeps", line: RankNewtonIters},
	RankPreorderSteps:         {key: "preorder_steps", combine: combineMax, label: "pre-order steps", line: RankPreorderSteps},
	RankPreorderStepsSkipped:  {key: "preorder_steps_skipped", combine: combineMax, label: "skipped", line: RankPreorderSteps},
	RankGradientSlotsSkipped:  {key: "gradient_slots_skipped", combine: combineMax, label: "gradient slots skipped", line: RankGradientSlotsSkipped},
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// sum returns the total of v.
func sum(v []int64) int64 {
	var t int64
	for _, x := range v {
		t += x
	}
	return t
}

// Harvest records the rank's per-rank counters, adds the summed ones to
// their /metrics series, and emits the rank's "perf" JSONL event: every
// per-rank counter and the two ratios read first when a run is slow —
// candidates scored per prune point and this rank's collectives per
// completed iteration.
func (r *Recorder) Harvest(counts RankCounters) {
	if r == nil {
		return
	}
	r.counts = counts
	for k, m := range rankCounterMetrics {
		if m != nil {
			m.Add(float64(counts[k]))
		}
	}
	c := r.col
	if c.trace == nil {
		return
	}
	b := fmt.Appendf(nil, "{\"ev\":\"perf\",\"rank\":%d", r.rank)
	b = counts.appendJSON(b, false)
	b = fmt.Appendf(b, ",\"candidates_per_prune_point\":%s,\"collectives_per_iteration\":%s%s}",
		jsonFloat(ratio(counts[RankSPRCandidatesScored], counts[RankSPRInsertionPlans])),
		jsonFloat(ratio(sum(r.collOps), counts[RankIterations])), c.jobFrag)
	c.emitLine("%s", b)
}

// jsonFloat renders a float64 as a JSON value ("null" for non-finite
// values, which bare JSON cannot represent).
func jsonFloat(x float64) string {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return "null"
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}
