package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// RankStats is one rank's aggregated span record.
type RankStats struct {
	// Rank is the MPI rank.
	Rank int `json:"rank"`
	// KernelNS and KernelOps are per-kernel-class span time and call
	// counts, indexed by KernelClass.
	KernelNS  [NumKernelClasses]int64 `json:"kernel_ns"`
	KernelOps [NumKernelClasses]int64 `json:"kernel_ops"`
	// CollectiveNS and CollectiveOps are per-traffic-class collective
	// span time and call counts, indexed by comm class.
	CollectiveNS  []int64 `json:"collective_ns"`
	CollectiveOps []int64 `json:"collective_ops"`
	// ComputeNS is the rank's total kernel time; CommNS its total
	// time inside collectives.
	ComputeNS int64 `json:"compute_ns"`
	CommNS    int64 `json:"comm_ns"`
	// Counters are the rank's per-rank counters, rendered after the span
	// aggregates under their keys, those at 0 omitted.
	Counters RankCounters `json:"-"`
}

// MarshalJSON renders the span aggregates, then the rank's nonzero
// per-rank counters in declaration order.
func (rs RankStats) MarshalJSON() ([]byte, error) {
	type spans RankStats
	return marshalWithCounters(spans(rs), &rs.Counters, true)
}

// marshalWithCounters renders v, a struct, with c's counters appended as
// its last members (see RankCounters.appendJSON).
func marshalWithCounters(v any, c *RankCounters, omitZero bool) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(c.appendJSON(b[:len(b)-1], omitZero), '}'), nil
}

// KernelStat is one kernel class's run-wide aggregate.
type KernelStat struct {
	// Name is the kernel class label.
	Name string `json:"name"`
	// NS is span time summed over ranks; Ops the call count.
	NS  int64 `json:"ns"`
	Ops int64 `json:"ops"`
	// MaxRankNS and MeanRankNS support per-class imbalance reading.
	MaxRankNS  int64   `json:"max_rank_ns"`
	MeanRankNS float64 `json:"mean_rank_ns"`
}

// CommClassStat is one traffic class's run-wide aggregate, joining the
// byte/op meters of internal/mpi with the measured collective time.
type CommClassStat struct {
	// Name is the traffic class ("likelihood-eval", …).
	Name string `json:"name"`
	// Ops and Bytes come from the mpi.Meter (payload counted once per
	// logical collective, the paper's Table-I convention).
	Ops   int64 `json:"ops"`
	Bytes int64 `json:"bytes"`
	// TimeNS is collective span time summed over ranks (ranks wait
	// concurrently, so this can exceed wall time).
	TimeNS int64 `json:"time_ns"`
	// MBPerSec is payload bandwidth: Bytes over the mean per-rank
	// collective time of this class.
	MBPerSec float64 `json:"mb_per_sec"`
}

// Report is the end-of-run telemetry summary — the measured counterpart
// of the paper's Table I / Fig. 3 columns.
type Report struct {
	// Ranks and Threads echo the run shape.
	Ranks   int `json:"ranks"`
	Threads int `json:"threads"`
	// WallSeconds is the run's wall-clock time.
	WallSeconds float64 `json:"wall_seconds"`

	// PerRank holds each rank's aggregated spans.
	PerRank []RankStats `json:"per_rank"`
	// Kernels aggregates spans per kernel class across ranks.
	Kernels []KernelStat `json:"kernels"`
	// Classes aggregates collective time and traffic per comm class.
	Classes []CommClassStat `json:"classes"`

	// ImbalanceRatio is max/mean of per-rank kernel (compute) time —
	// the load-balance quantity the paper's cyclic data distribution
	// is designed to keep near 1.0. Zero when unmeasurable.
	ImbalanceRatio float64 `json:"imbalance_ratio"`
	// CommFraction is Σ collective time / Σ (collective + compute)
	// time over all ranks — the comm-vs-compute split.
	CommFraction float64 `json:"comm_fraction"`
	// CollectivesPerSec is the rate of logical collectives
	// (mpi.Meter ops) over wall time — the Allreduce rate.
	CollectivesPerSec float64 `json:"collectives_per_sec"`
	// CollectivesPerIteration is logical collectives (mpi.Meter ops)
	// per completed outer search iteration — the quantity the batched
	// all-branch gradient drives down from O(branches) toward O(1) per
	// Newton sweep (docs/PERFORMANCE.md). Zero when no iteration
	// completed.
	CollectivesPerIteration float64 `json:"collectives_per_iteration"`

	// PoolUtilization is mean blocks-per-pool-dispatch divided by the
	// thread count, capped at 1: how well engine calls fill the §V worker
	// pool (0 when no pool ran).
	PoolUtilization float64 `json:"pool_utilization"`
	// PCacheHitRate is P-matrix cache hits over lookups, summed across
	// ranks (0 when the cache saw no lookups).
	PCacheHitRate float64 `json:"pcache_hit_rate"`
	// LaneShare is the share of the Newview, evaluation and
	// insertion-score site work computed in vector lanes
	// (docs/PERFORMANCE.md §6) — 1 under PSR on an AVX2 CPU and under Γ on
	// an AVX-512 one, 0 when a run fell back to the Go loops.
	LaneShare float64 `json:"lane_share"`
	// ModelProbesPerRound is model-parameter probes (SetShared + forced
	// traversal + evaluation) per model-optimization round (0 when no
	// round ran).
	ModelProbesPerRound float64 `json:"model_probes_per_round"`
	// ActivePartitionsPerProbe is the mean number of partitions a
	// model-parameter probe evaluated: converged partitions drop out of
	// the probes (docs/PERFORMANCE.md §9; 0 when no probe ran).
	ActivePartitionsPerProbe float64 `json:"active_partitions_per_probe"`
	// CandidatesPerPrunePoint is SPR regraft candidates scored per
	// insertion plan: what one engine call and one collective of the
	// topology search carry (docs/PERFORMANCE.md §8; 0 when no plan ran).
	CandidatesPerPrunePoint float64 `json:"candidates_per_prune_point"`
	// Totals are the per-rank counters combined over ranks by their
	// declared rule (a sum; the widest pool or the search's count; the
	// narrowest lane width), rendered last, every one under its key.
	Totals RankCounters `json:"-"`
}

// MarshalJSON renders the report's fields, then every total under its
// counter's key.
func (r Report) MarshalJSON() ([]byte, error) {
	type fields Report
	return marshalWithCounters(fields(r), &r.Totals, false)
}

// Finalize aggregates the per-rank recorders into a Report.
// meterOps/meterBytes are the mpi.Meter readings of the collector's
// traffic classes. threads is the configured per-rank worker count. Call
// only after the world has joined (every rank goroutine finished).
func (c *Collector) Finalize(wall time.Duration, threads int, meterOps, meterBytes []int64) *Report {
	if c == nil {
		return nil
	}
	rep := &Report{
		Ranks:       len(c.recs),
		Threads:     threads,
		WallSeconds: wall.Seconds(),
	}
	var sumCompute, sumComm, maxCompute int64
	for i, r := range c.recs {
		rs := RankStats{
			Rank:          r.rank,
			KernelNS:      r.kernelNS,
			KernelOps:     r.kernelOps,
			CollectiveNS:  append([]int64(nil), r.collNS...),
			CollectiveOps: append([]int64(nil), r.collOps...),
			ComputeNS:     sum(r.kernelNS[:]),
			CommNS:        sum(r.collNS),
			Counters:      r.counts,
		}
		rep.PerRank = append(rep.PerRank, rs)
		sumCompute += rs.ComputeNS
		sumComm += rs.CommNS
		if rs.ComputeNS > maxCompute {
			maxCompute = rs.ComputeNS
		}
		for k, v := range r.counts {
			switch t := &rep.Totals[k]; rankCounters[k].combine {
			case combineSum:
				*t += v
			case combineMax:
				*t = max(*t, v)
			case combineMin:
				if i == 0 || v < *t {
					*t = v
				}
			}
		}
	}
	tot := &rep.Totals
	rep.LaneShare = ratio(tot[RankLaneSites], tot[RankSites])
	rep.PCacheHitRate = ratio(tot[RankPCacheHits], tot[RankPCacheHits]+tot[RankPCacheMisses])
	rep.ModelProbesPerRound = ratio(tot[RankModelProbes], tot[RankModelOptRounds])
	rep.ActivePartitionsPerProbe = ratio(tot[RankModelPartitionEvals], tot[RankModelProbes])
	rep.CandidatesPerPrunePoint = ratio(tot[RankSPRCandidatesScored], tot[RankSPRInsertionPlans])

	for k := KernelClass(0); k < NumKernelClasses; k++ {
		ks := KernelStat{Name: k.String()}
		var maxNS int64
		for _, rs := range rep.PerRank {
			ks.NS += rs.KernelNS[k]
			ks.Ops += rs.KernelOps[k]
			if rs.KernelNS[k] > maxNS {
				maxNS = rs.KernelNS[k]
			}
		}
		ks.MaxRankNS = maxNS
		ks.MeanRankNS = float64(ks.NS) / float64(max(rep.Ranks, 1))
		rep.Kernels = append(rep.Kernels, ks)
	}

	var totalMeterOps int64
	for class, name := range c.classNames {
		cs := CommClassStat{Name: name}
		if class < len(meterOps) {
			cs.Ops = meterOps[class]
			totalMeterOps += meterOps[class]
		}
		if class < len(meterBytes) {
			cs.Bytes = meterBytes[class]
		}
		for _, rs := range rep.PerRank {
			if class < len(rs.CollectiveNS) {
				cs.TimeNS += rs.CollectiveNS[class]
			}
		}
		if meanNS := float64(cs.TimeNS) / float64(max(rep.Ranks, 1)); meanNS > 0 {
			cs.MBPerSec = float64(cs.Bytes) / 1e6 / (meanNS / 1e9)
		}
		if cs.Ops != 0 || cs.Bytes != 0 || cs.TimeNS != 0 {
			rep.Classes = append(rep.Classes, cs)
		}
	}
	sort.Slice(rep.Classes, func(i, j int) bool { return rep.Classes[i].Bytes > rep.Classes[j].Bytes })

	if mean := float64(sumCompute) / float64(max(rep.Ranks, 1)); mean > 0 {
		rep.ImbalanceRatio = float64(maxCompute) / mean
	}
	if tot := sumCompute + sumComm; tot > 0 {
		rep.CommFraction = float64(sumComm) / float64(tot)
	}
	if rep.WallSeconds > 0 {
		rep.CollectivesPerSec = float64(totalMeterOps) / rep.WallSeconds
	}
	if iters := tot[RankIterations]; iters > 0 {
		rep.CollectivesPerIteration = float64(totalMeterOps) / float64(iters)
	}
	if tot[RankPoolDispatches] > 0 && tot[RankPoolThreads] > 0 {
		rep.PoolUtilization = min(1, ratio(tot[RankPoolBlocks], tot[RankPoolDispatches])/float64(tot[RankPoolThreads]))
	}
	return rep
}

// WriteJSON writes the report as one indented JSON document.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// String renders the run report as a text block — the `-stats` output of
// the CLIs.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry report (%d ranks x %d threads, wall %.3fs)\n",
		r.Ranks, max(r.Threads, 1), r.WallSeconds)

	fmt.Fprintf(&b, "\nkernel spans (summed over ranks):\n")
	fmt.Fprintf(&b, "  %-14s %12s %14s %16s\n", "class", "calls", "time", "max-rank time")
	for _, k := range r.Kernels {
		if k.Ops == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-14s %12d %14s %16s\n",
			k.Name, k.Ops, fmtNS(k.NS), fmtNS(k.MaxRankNS))
	}

	fmt.Fprintf(&b, "\ncollectives (time summed over ranks; bytes counted once per logical op):\n")
	fmt.Fprintf(&b, "  %-22s %10s %14s %12s %12s\n", "class", "ops", "bytes", "time", "MB/s")
	for _, cs := range r.Classes {
		fmt.Fprintf(&b, "  %-22s %10d %14d %12s %12.1f\n",
			cs.Name, cs.Ops, cs.Bytes, fmtNS(cs.TimeNS), cs.MBPerSec)
	}

	fmt.Fprintf(&b, "\nderived metrics:\n")
	fmt.Fprintf(&b, "  load imbalance (max/mean kernel time)  %8.3f\n", r.ImbalanceRatio)
	fmt.Fprintf(&b, "  comm fraction (collective/(coll+comp)) %8.3f\n", r.CommFraction)
	fmt.Fprintf(&b, "  collective rate                        %8.1f ops/s\n", r.CollectivesPerSec)
	if r.CollectivesPerIteration > 0 {
		fmt.Fprintf(&b, "  collectives / iteration                %8.1f\n", r.CollectivesPerIteration)
	}
	if r.PoolUtilization > 0 {
		fmt.Fprintf(&b, "  thread-pool block utilization          %8.3f\n", r.PoolUtilization)
	}
	if r.PCacheHitRate > 0 {
		fmt.Fprintf(&b, "  P-matrix cache hit rate                %8.3f\n", r.PCacheHitRate)
	}
	if r.Totals[RankSites] > 0 {
		fmt.Fprintf(&b, "  site work in vector lanes              %8.3f\n", r.LaneShare)
	}
	if r.ModelProbesPerRound > 0 {
		fmt.Fprintf(&b, "  model probes / round                   %8.1f\n", r.ModelProbesPerRound)
	}
	if r.ActivePartitionsPerProbe > 0 {
		fmt.Fprintf(&b, "  active partitions / probe              %8.1f\n", r.ActivePartitionsPerProbe)
	}
	if r.CandidatesPerPrunePoint > 0 {
		fmt.Fprintf(&b, "  candidates / prune point               %8.1f\n", r.CandidatesPerPrunePoint)
	}
	r.writeCounterLines(&b)

	fmt.Fprintf(&b, "\nper-rank compute vs collective time:\n")
	fmt.Fprintf(&b, "  %-6s %14s %14s %10s\n", "rank", "compute", "collective", "comm%")
	for _, rs := range r.PerRank {
		pct := 0.0
		if tot := rs.ComputeNS + rs.CommNS; tot > 0 {
			pct = 100 * float64(rs.CommNS) / float64(tot)
		}
		fmt.Fprintf(&b, "  %-6d %14s %14s %9.1f%%\n",
			rs.Rank, fmtNS(rs.ComputeNS), fmtNS(rs.CommNS), pct)
	}
	return b.String()
}

// writeCounterLines prints the -stats counter lines: the labels of a
// line's counters, then their totals, each joined by " / " (a lone total
// right-aligned like the derived metrics). A line of counts is printed
// when one of them is nonzero, a line holding a max- or min-combined
// counter (the lane width, the search's counts) whenever the run made an
// engine call: there 0 is a reading.
func (r *Report) writeCounterLines(b *strings.Builder) {
	for head := range rankCounters {
		if rankCounters[head].label == "" || rankCounters[head].line != RankCounter(head) {
			continue
		}
		var labels, totals []string
		show := false
		for k, d := range rankCounters {
			if d.label == "" || d.line != RankCounter(head) {
				continue
			}
			labels = append(labels, d.label)
			totals = append(totals, strconv.FormatInt(r.Totals[k], 10))
			show = show || r.Totals[k] != 0 || d.combine != combineSum && r.Totals[RankEngineCalls] > 0
		}
		if !show {
			continue
		}
		value := strings.Join(totals, " / ")
		if len(totals) == 1 {
			value = fmt.Sprintf("%8s", value)
		}
		fmt.Fprintf(b, "  %-37s  %s\n", strings.Join(labels, " / "), value)
	}
}

// fmtNS renders a nanosecond count as a human duration.
func fmtNS(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
