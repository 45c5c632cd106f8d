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

// Counter labels a search-progress counter.
type Counter int

// Search-phase progress counters, bumped by internal/search.
const (
	// CounterIterations is completed outer search iterations.
	CounterIterations Counter = iota
	// CounterModelOptRounds is model-parameter optimization rounds.
	CounterModelOptRounds
	// CounterModelProbes is model-parameter probes: SetShared + forced
	// traversal + evaluation regions issued by the lockstep Brent search.
	CounterModelProbes
	// CounterModelPartitionEvals is the partitions those probes evaluated:
	// a probe covers only the partitions whose candidate changed
	// (docs/PERFORMANCE.md §9), so this over model-probes is the mean
	// probe width.
	CounterModelPartitionEvals
	// CounterNewtonIters is Newton steps over all branch visits.
	CounterNewtonIters
	// CounterSPRRounds is completed lazy-SPR sweeps.
	CounterSPRRounds
	// CounterSPRPrunes is subtree prune attempts.
	CounterSPRPrunes
	// CounterSPRInsertionPlans is insertion plans executed: prune points
	// that had candidates, one engine call and one collective each.
	CounterSPRInsertionPlans
	// CounterSPRCandidatesScored is regraft candidates scored by those
	// plans.
	CounterSPRCandidatesScored
	// CounterSPRVerifications is best candidates verified exactly (three
	// branch optimizations + one full evaluation each).
	CounterSPRVerifications
	// CounterSPRImprovements is accepted (verified) SPR moves.
	CounterSPRImprovements
	// CounterTraversalSteps is CLV recomputation steps actually scheduled
	// by the search's full-tree evaluations.
	CounterTraversalSteps
	// CounterTraversalStepsSkipped is CLV recomputations those
	// evaluations avoided by reusing valid clean CLVs (incremental
	// traversal, docs/PERFORMANCE.md).
	CounterTraversalStepsSkipped
	// CounterBatchedGradientSweeps is branch-length smoothing sweeps run
	// by the batched all-branch gradient smoother (docs/PERFORMANCE.md).
	CounterBatchedGradientSweeps
	// CounterPreorderSteps is pre-order (outer-vector) recomputation
	// steps actually scheduled by batched-gradient iterations.
	CounterPreorderSteps
	// CounterPreorderStepsSkipped is pre-order steps those iterations
	// avoided: a sweep's inner Newton iterations read the outer vectors
	// its first iteration computed.
	CounterPreorderStepsSkipped
	// CounterGradientSlotsSkipped is (edge, class) derivative slots those
	// inner iterations did not compute because the slot had converged
	// (traversal.GradPlan.Active).
	CounterGradientSlotsSkipped

	// NumCounters is the number of distinct counters.
	NumCounters
)

// String implements fmt.Stringer.
func (c Counter) String() string {
	switch c {
	case CounterIterations:
		return "iterations"
	case CounterModelOptRounds:
		return "model-opt-rounds"
	case CounterModelProbes:
		return "model-probes"
	case CounterModelPartitionEvals:
		return "model-partition-evals"
	case CounterNewtonIters:
		return "newton-iterations"
	case CounterSPRRounds:
		return "spr-rounds"
	case CounterSPRPrunes:
		return "spr-prunes"
	case CounterSPRInsertionPlans:
		return "spr-insertion-plans"
	case CounterSPRCandidatesScored:
		return "spr-candidates-scored"
	case CounterSPRVerifications:
		return "spr-verifications"
	case CounterSPRImprovements:
		return "spr-improvements"
	case CounterTraversalSteps:
		return "traversal-steps"
	case CounterTraversalStepsSkipped:
		return "traversal-steps-skipped"
	case CounterBatchedGradientSweeps:
		return "batched-gradient-sweeps"
	case CounterPreorderSteps:
		return "preorder-steps"
	case CounterPreorderStepsSkipped:
		return "preorder-steps-skipped"
	case CounterGradientSlotsSkipped:
		return "gradient-slots-skipped"
	}
	return fmt.Sprintf("Counter(%d)", int(c))
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

	counters [NumCounters]int64

	// Pool, receive and kernel fast-path counters (harvested once, at
	// engine close).
	pool PoolStats
	recv RecvStats
	perf KernelPerf
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
// windows for critical-path and straggler attribution. Nil-safe no-op.
func (r *Recorder) EmitIteration(iter int, lnl float64) {
	if r == nil {
		return
	}
	iterationsTotal.Inc()
	if c := r.col; c != nil && c.trace != nil {
		c.emitLine("{\"ev\":\"iter\",\"rank\":%d,\"iter\":%d,\"lnl\":%s,\"t_ns\":%d%s}",
			r.rank, iter, jsonFloat(lnl), r.now(), c.jobFrag)
	}
}

// Inc bumps a search-progress counter by n.
func (r *Recorder) Inc(c Counter, n int64) {
	if r == nil {
		return
	}
	r.counters[c] += n
}

// PoolStats is one rank's intra-rank execution summary: how many engine
// calls it ran, how many of them were dispatched to the worker pool (a
// call of fewer than two items, and every call of a serial rank, runs
// inline), the (kernel, block) items those dispatches carried, how many
// parked workers they had to wake and how often a worker's poll budget
// ran out and it parked (docs/PERFORMANCE.md §6). The field order is the
// order of the keys in a -stats-json per_rank entry.
type PoolStats struct {
	EngineCalls int64 `json:"engine_calls,omitempty"`
	Threads     int   `json:"pool_threads,omitempty"`
	Dispatches  int64 `json:"pool_dispatches,omitempty"`
	Blocks      int64 `json:"pool_blocks,omitempty"`
	Wakes       int64 `json:"pool_wakes,omitempty"`
	Parks       int64 `json:"pool_parks,omitempty"`
}

// SetPool records the rank's pool counters (harvested once, when the
// rank's engine closes, before SetKernelPerf).
func (r *Recorder) SetPool(p PoolStats) {
	if r == nil {
		return
	}
	r.pool = p
	poolMetrics.engineCalls.Add(float64(p.EngineCalls))
	poolMetrics.dispatches.Add(float64(p.Dispatches))
	poolMetrics.wakes.Add(float64(p.Wakes))
	poolMetrics.parks.Add(float64(p.Parks))
}

// RecvStats counts how one rank's in-process receives were served
// (docs/PERFORMANCE.md §6 "Waiting"): by polling the peer's channel under
// the pool's rule — the message was queued or arrived within the budget —
// or by parking on it. Every receive of a world whose ranks outnumber
// GOMAXPROCS parks, and so does one whose peer the host keeps off its CPU
// for longer than the budget. Both stay zero over TCP, whose receives
// always park.
// The field order is the order of the keys in a -stats-json per_rank
// entry.
type RecvStats struct {
	Polled int64 `json:"recv_polled,omitempty"`
	Parked int64 `json:"recv_parked,omitempty"`
}

// SetRecv records the rank's receive counters (harvested once, when the
// rank's engine closes, before SetKernelPerf).
func (r *Recorder) SetRecv(s RecvStats) {
	if r == nil {
		return
	}
	r.recv = s
	recvMetrics.polled.Add(float64(s.Polled))
	recvMetrics.parked.Add(float64(s.Parked))
}

// KernelPerf is one rank's kernel fast-path summary, summed over its
// kernels: P-matrix cache activity and how much of the tip lookup tables
// the fills produced.
type KernelPerf struct {
	PCacheHits   int64 `json:"pcache_hits,omitempty"`
	PCacheMisses int64 `json:"pcache_misses,omitempty"`
	// TipTipNewviews is the number of tip-tip newview calls (cherries);
	// TipTableEntries the (category, code) entries the tip tables held
	// plus the codes the prep tables held.
	TipTipNewviews  int64 `json:"tiptip_newviews,omitempty"`
	TipTableEntries int64 `json:"tip_table_entries,omitempty"`
	// SiteRateTableEvals / SiteRateExactEvals are the single-site
	// likelihood evaluations of the PSR rate scan: those that read their
	// P matrices from the rate table and those that built them for an
	// off-grid rate (at most 17 and exactly 2 per local pattern and round;
	// docs/PERFORMANCE.md §9).
	SiteRateTableEvals int64 `json:"site_rate_table_evals,omitempty"`
	SiteRateExactEvals int64 `json:"site_rate_exact_evals,omitempty"`
	// Sites are the sites of the Newview, evaluation and insertion-score
	// operations of both rate models, one per site and operation;
	// LaneSites those of them computed in AVX2 vector lanes
	// (docs/PERFORMANCE.md §6).
	Sites     int64 `json:"sites,omitempty"`
	LaneSites int64 `json:"lane_sites,omitempty"`
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

// SetKernelPerf records the rank's kernel fast-path counters (harvested
// once, when the rank's engine closes) and emits a "perf" JSONL event
// carrying them, the pool and receive counters SetPool and SetRecv
// recorded, the rank's
// model-probe and SPR counters, and the two ratios read first when a run
// is slow: candidates scored per prune point and this rank's collectives
// per completed iteration.
func (r *Recorder) SetKernelPerf(p KernelPerf) {
	if r == nil {
		return
	}
	r.perf = p
	if c := r.col; c != nil {
		collectives := sum(r.collOps)
		c.emitLine("{\"ev\":\"perf\",\"rank\":%d,\"pcache_hits\":%d,\"pcache_misses\":%d,\"tiptip_newviews\":%d,\"tip_table_entries\":%d,\"site_rate_table_evals\":%d,\"site_rate_exact_evals\":%d,\"sites\":%d,\"lane_sites\":%d,\"engine_calls\":%d,\"pool_dispatches\":%d,\"pool_wakes\":%d,\"pool_parks\":%d,\"recv_polled\":%d,\"recv_parked\":%d,\"model_probes\":%d,\"model_partition_evals\":%d,\"spr_insertion_plans\":%d,\"spr_candidates_scored\":%d,\"spr_verifications\":%d,\"candidates_per_prune_point\":%s,\"collectives_per_iteration\":%s%s}",
			r.rank, p.PCacheHits, p.PCacheMisses,
			p.TipTipNewviews, p.TipTableEntries, p.SiteRateTableEvals, p.SiteRateExactEvals, p.Sites, p.LaneSites,
			r.pool.EngineCalls, r.pool.Dispatches, r.pool.Wakes, r.pool.Parks, r.recv.Polled, r.recv.Parked,
			r.counters[CounterModelProbes], r.counters[CounterModelPartitionEvals],
			r.counters[CounterSPRInsertionPlans], r.counters[CounterSPRCandidatesScored], r.counters[CounterSPRVerifications],
			jsonFloat(ratio(r.counters[CounterSPRCandidatesScored], r.counters[CounterSPRInsertionPlans])),
			jsonFloat(ratio(collectives, r.counters[CounterIterations])), c.jobFrag)
	}
}

// jsonFloat renders a float64 as a JSON value ("null" for non-finite
// values, which bare JSON cannot represent).
func jsonFloat(x float64) string {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return "null"
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}
