package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
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
	// PoolStats are the rank's engine-call and thread-pool counters (zero
	// when the rank ran serially), RecvStats how its in-process receives
	// were served, KernelPerf its kernel fast-path counters.
	PoolStats
	RecvStats
	KernelPerf
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
	// TableEvals and ExactEvals are set on the site-rates class only:
	// the single-site evaluations its spans covered, summed over ranks.
	TableEvals int64 `json:"table_evals,omitempty"`
	ExactEvals int64 `json:"exact_evals,omitempty"`
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
	// EngineCalls, PoolDispatches, PoolWakes and PoolParks are the
	// per-rank counters of the same names summed over ranks.
	EngineCalls    int64 `json:"engine_calls"`
	PoolDispatches int64 `json:"pool_dispatches"`
	PoolWakes      int64 `json:"pool_wakes"`
	PoolParks      int64 `json:"pool_parks"`
	// RecvPolled and RecvParked are the per-rank receive counters summed
	// over ranks.
	RecvPolled int64 `json:"recv_polled"`
	RecvParked int64 `json:"recv_parked"`

	// PCacheHitRate is P-matrix cache hits over lookups, summed across
	// ranks (0 when the cache saw no lookups).
	PCacheHitRate float64 `json:"pcache_hit_rate"`
	// Sites is the Newview, evaluation and insertion-score site work of
	// both rate models summed across ranks; LaneShare the share of it
	// computed in AVX2 vector lanes (docs/PERFORMANCE.md §6) — 1 under PSR
	// on an AVX2 CPU, 0 when a run fell back to the Go loops.
	Sites     int64   `json:"sites"`
	LaneShare float64 `json:"lane_share"`
	// ModelProbesPerRound is model-parameter probes (SetShared + forced
	// traversal + evaluation) per model-optimization round, from rank 0
	// (0 when no round ran).
	ModelProbesPerRound float64 `json:"model_probes_per_round"`
	// ActivePartitionsPerProbe is the mean number of partitions a
	// model-parameter probe evaluated, from rank 0: converged partitions
	// drop out of the probes (docs/PERFORMANCE.md §9; 0 when no probe
	// ran).
	ActivePartitionsPerProbe float64 `json:"active_partitions_per_probe"`
	// CandidatesPerPrunePoint is SPR regraft candidates scored per
	// insertion plan, from rank 0: what one engine call and one
	// collective of the topology search carry (docs/PERFORMANCE.md §8;
	// 0 when no plan ran).
	CandidatesPerPrunePoint float64 `json:"candidates_per_prune_point"`
	// Counters holds the search-progress counters (from rank 0 —
	// identical on every rank under the de-centralized scheme).
	Counters map[string]int64 `json:"counters"`
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
		Counters:    map[string]int64{},
	}
	var sumCompute, sumComm, maxCompute int64
	var poolBlocks int64
	var pcHits, pcMiss, laneSites int64
	poolThreads := 0
	for _, r := range c.recs {
		rs := RankStats{
			Rank:          r.rank,
			KernelNS:      r.kernelNS,
			KernelOps:     r.kernelOps,
			CollectiveNS:  append([]int64(nil), r.collNS...),
			CollectiveOps: append([]int64(nil), r.collOps...),
			ComputeNS:     sum(r.kernelNS[:]),
			CommNS:        sum(r.collNS),
			PoolStats:     r.pool,
			RecvStats:     r.recv,
			KernelPerf:    r.perf,
		}
		rep.PerRank = append(rep.PerRank, rs)
		sumCompute += rs.ComputeNS
		sumComm += rs.CommNS
		if rs.ComputeNS > maxCompute {
			maxCompute = rs.ComputeNS
		}
		rep.EngineCalls += r.pool.EngineCalls
		rep.PoolDispatches += r.pool.Dispatches
		rep.PoolWakes += r.pool.Wakes
		rep.PoolParks += r.pool.Parks
		rep.RecvPolled += r.recv.Polled
		rep.RecvParked += r.recv.Parked
		poolBlocks += r.pool.Blocks
		poolThreads = max(poolThreads, r.pool.Threads)
		pcHits += r.perf.PCacheHits
		pcMiss += r.perf.PCacheMisses
		rep.Sites += r.perf.Sites
		laneSites += r.perf.LaneSites
	}
	rep.LaneShare = ratio(laneSites, rep.Sites)
	if tot := pcHits + pcMiss; tot > 0 {
		rep.PCacheHitRate = float64(pcHits) / float64(tot)
	}
	rep.ModelProbesPerRound = ratio(c.recs[0].counters[CounterModelProbes], c.recs[0].counters[CounterModelOptRounds])
	rep.ActivePartitionsPerProbe = ratio(c.recs[0].counters[CounterModelPartitionEvals], c.recs[0].counters[CounterModelProbes])
	rep.CandidatesPerPrunePoint = ratio(c.recs[0].counters[CounterSPRCandidatesScored], c.recs[0].counters[CounterSPRInsertionPlans])

	for k := KernelClass(0); k < NumKernelClasses; k++ {
		ks := KernelStat{Name: k.String()}
		var maxNS int64
		for _, rs := range rep.PerRank {
			ks.NS += rs.KernelNS[k]
			ks.Ops += rs.KernelOps[k]
			if k == KernelSiteRates {
				ks.TableEvals += rs.SiteRateTableEvals
				ks.ExactEvals += rs.SiteRateExactEvals
			}
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
	if iters := c.recs[0].counters[CounterIterations]; iters > 0 {
		rep.CollectivesPerIteration = float64(totalMeterOps) / float64(iters)
	}
	if rep.PoolDispatches > 0 && poolThreads > 0 {
		util := float64(poolBlocks) / float64(rep.PoolDispatches) / float64(poolThreads)
		if util > 1 {
			util = 1
		}
		rep.PoolUtilization = util
	}
	for ct := Counter(0); ct < NumCounters; ct++ {
		if v := c.recs[0].counters[ct]; v != 0 || ct == CounterIterations {
			rep.Counters[ct.String()] = v
		}
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
		if k.TableEvals != 0 || k.ExactEvals != 0 {
			fmt.Fprintf(&b, "  %-14s %12d table + %d exact single-site evaluations\n", "", k.TableEvals, k.ExactEvals)
		}
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
	if r.EngineCalls > 0 {
		fmt.Fprintf(&b, "  engine calls / pool dispatches / wakes / parks  %d / %d / %d / %d\n",
			r.EngineCalls, r.PoolDispatches, r.PoolWakes, r.PoolParks)
	}
	if r.RecvPolled+r.RecvParked > 0 {
		fmt.Fprintf(&b, "  receives polled / parked               %d / %d\n", r.RecvPolled, r.RecvParked)
	}
	if r.PoolUtilization > 0 {
		fmt.Fprintf(&b, "  thread-pool block utilization          %8.3f\n", r.PoolUtilization)
	}
	if r.PCacheHitRate > 0 {
		fmt.Fprintf(&b, "  P-matrix cache hit rate                %8.3f\n", r.PCacheHitRate)
	}
	if r.Sites > 0 {
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

	if len(r.Counters) > 0 {
		fmt.Fprintf(&b, "\nsearch progress:\n")
		names := make([]string, 0, len(r.Counters))
		for n := range r.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "  %-22s %12d\n", n, r.Counters[n])
		}
	}
	return b.String()
}

// fmtNS renders a nanosecond count as a human duration.
func fmtNS(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
