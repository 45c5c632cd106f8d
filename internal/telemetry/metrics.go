package telemetry

import "repro/internal/metrics"

// This file bridges the per-rank recorders onto the process-wide
// Prometheus registry (internal/metrics), so a live scrape of a running
// daemon or CLI sees kernel and collective totals while the run is still
// in flight — the same numbers Finalize aggregates after the fact, but
// continuously. The bridge obeys the telemetry contract: metric updates
// are atomic adds on the scrape side only and never feed anything back
// into the computation (docs/DETERMINISM.md), and a nil Recorder still
// costs nothing because the update sites live inside the existing
// nil-guarded methods.

// spanMetrics is the (seconds, ops) counter pair of one span class.
type spanMetrics struct {
	seconds *metrics.Counter
	ops     *metrics.Counter
}

var (
	kernelSecondsVec = metrics.Default().CounterVec("examl_kernel_seconds_total",
		"Likelihood kernel span time by class, summed over ranks.", "class")
	kernelOpsVec = metrics.Default().CounterVec("examl_kernel_ops_total",
		"Likelihood kernel invocations by class, summed over ranks.", "class")
	collSecondsVec = metrics.Default().CounterVec("examl_collective_seconds_total",
		"Collective span time by traffic class, summed over ranks.", "class")
	collOpsVec = metrics.Default().CounterVec("examl_collective_ops_total",
		"Collective operations by traffic class, summed over ranks.", "class")
	iterationsTotal = metrics.Default().Counter("examl_search_iterations_total",
		"Completed outer search iterations, summed over concurrent runs.")

	// rankCounterMetrics is the /metrics series of every summed per-rank
	// counter, examl_<key>_total, added to by Harvest; nil for the others.
	rankCounterMetrics = func() [NumRankCounters]*metrics.Counter {
		var m [NumRankCounters]*metrics.Counter
		for k, d := range rankCounters {
			if d.combine == combineSum {
				m[k] = metrics.Default().Counter("examl_"+d.key+"_total", d.help+", summed over ranks and finished runs.")
			}
		}
		return m
	}()

	// kernelMetrics pre-resolves the counter pair per kernel class so
	// EndEngineCall pays no map lookup on the hot path (NewCollector does
	// the same per traffic class).
	kernelMetrics = func() [NumKernelClasses]spanMetrics {
		var m [NumKernelClasses]spanMetrics
		for k := KernelClass(0); k < NumKernelClasses; k++ {
			m[k] = spanMetrics{
				seconds: kernelSecondsVec.With(k.String()),
				ops:     kernelOpsVec.With(k.String()),
			}
		}
		return m
	}()
)

// Publish mirrors the report's derived metrics onto a registry as
// gauges, so the most recent completed run's summary is scrapeable
// alongside the live counters. Called by examl.Infer at finalize time;
// nil-safe on both sides.
func (r *Report) Publish(reg *metrics.Registry) {
	if r == nil || reg == nil {
		return
	}
	reg.Gauge("examl_run_imbalance_ratio",
		"Max/mean per-rank kernel time of the last completed run.").Set(r.ImbalanceRatio)
	reg.Gauge("examl_run_comm_fraction",
		"Collective/(collective+compute) time share of the last completed run.").Set(r.CommFraction)
	reg.Gauge("examl_run_collectives_per_sec",
		"Logical collective rate of the last completed run.").Set(r.CollectivesPerSec)
	reg.Gauge("examl_run_collectives_per_iteration",
		"Logical collectives per outer search iteration of the last completed run.").Set(r.CollectivesPerIteration)
	reg.Gauge("examl_run_wall_seconds",
		"Wall-clock duration of the last completed run.").Set(r.WallSeconds)
	reg.Gauge("examl_run_pcache_hit_rate",
		"P-matrix cache hit rate of the last completed run.").Set(r.PCacheHitRate)
	reg.Gauge("examl_run_pool_utilization",
		"Thread-pool block utilization of the last completed run.").Set(r.PoolUtilization)
	reg.Gauge("examl_run_lane_share",
		"Share of the last completed run's site work computed in vector lanes.").Set(r.LaneShare)
	reg.Gauge("examl_run_lane_width",
		"Narrowest Γ site-lane width a rank of the last completed run ran: 8, 4 or 0.").Set(float64(r.Totals[RankLaneWidth]))
}
