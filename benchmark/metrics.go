package main

import (
	"math"
	"sort"
)

// metricDef names one metric the benchmark prints. The tables below are
// the code's copy of BENCHMARK.json; a test keeps the two identical.
type metricDef struct {
	name, unit string

	// End-to-end only: the share of the old median a metric may worsen by.
	// bound is BENCHMARK.json's. The driver reads it against medians of runs
	// on different seeds and refuses a bound below the spread of those runs,
	// so it cannot sit under what different datasets and this machine cause
	// (README, "Two sets of bounds"). sameSeed is -compare's: two matrix
	// records of one seed performed the same ops, so the datasets' spread is
	// gone and the likelihood repeats exactly.
	bound, sameSeed float64
}

// endToEnd are what a user of the system sees, measured with tracing off.
// All three are better when lower.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", bound: 0.25, sameSeed: 0.10},
	{name: "neg_lnl_rel", unit: "ratio", bound: 0.003, sameSeed: 1e-9},
	{name: "setup_s", unit: "s", bound: 0.25, sameSeed: 0.25},
}

// engineCalls are the tracedEngine span names; each yields a .calls and
// an _s metric.
var engineCalls = []string{
	"engine.evaluate_probe", "engine.evaluate_trial", "engine.set_shared", "engine.site_rates",
	"engine.all_branch_derivs", "engine.prepare_branch", "engine.branch_derivs", "engine.traverse",
}

// spanSeconds are the other span names reported as <name>_s (inclusive
// time per op on rank 0).
var spanSeconds = []string{
	"msa.parse", "msa.compress", "msa.load", "distrib.compute", "mpinet.connect", "engine.new",
	"search.new", "search.run", "tree.newick", "engine.close", "mem.sample",
	"transport.send", "transport.recv", "phyrun.run",
}

// commClasses are the Table-I traffic classes reported as mpi.bytes.<class>.
var commClasses = []string{"likelihood-eval", "branch-length", "traversal-descriptor", "model-params", "control"}

// perLayer are the single-layer metrics of the traced run, in print order.
// A metric that does not apply to a workload (transport.* on a channel
// workload, phyrun.* outside the campaign) reads 0.
var perLayer = func() []metricDef {
	var m []metricDef
	for _, n := range spanSeconds {
		m = append(m, metricDef{name: n + "_s", unit: "s"})
	}
	for _, n := range engineCalls {
		m = append(m, metricDef{name: n + ".calls", unit: "count"}, metricDef{name: n + "_s", unit: "s"})
	}
	m = append(m,
		metricDef{name: "engine.evaluate_probe.share", unit: "ratio"},
		metricDef{name: "search.self_s", unit: "s"},
		metricDef{name: "search.iterations", unit: "count"},
		metricDef{name: "search.rf_true", unit: "count"},
		metricDef{name: "traversal.steps_probe", unit: "count"},
		metricDef{name: "traversal.steps_trial", unit: "count"},
		metricDef{name: "msa.patterns", unit: "count"},
		metricDef{name: "distrib.imbalance", unit: "ratio"},
		metricDef{name: "transport.msgs", unit: "count"},
		metricDef{name: "mpi.collectives", unit: "count"},
		metricDef{name: "mpi.collectives_per_iter", unit: "count"},
		metricDef{name: "mpi.regions", unit: "count"},
		metricDef{name: "mpi.bytes", unit: "bytes"},
	)
	for _, c := range commClasses {
		m = append(m, metricDef{name: "mpi.bytes." + c, unit: "bytes"})
	}
	return append(m,
		metricDef{name: "kernel.eval_full_ms", unit: "ms"},
		metricDef{name: "kernel.gradient_ms", unit: "ms"},
		metricDef{name: "traversal.build_us", unit: "us"},
		metricDef{name: "traversal.build_gradient_us", unit: "us"},
		metricDef{name: "mpi.allreduce_chan_us", unit: "us"},
		metricDef{name: "mpinet.allreduce_tcp_us", unit: "us"},
		metricDef{name: "mem.peak_rss_mb", unit: "MB"},
		metricDef{name: "mem.live_heap_mb", unit: "MB"},
		metricDef{name: "phyrun.tasks", unit: "count"},
		metricDef{name: "phyrun.task_start_s", unit: "s"},
		metricDef{name: "phyrun.task_replicate_s", unit: "s"},
		metricDef{name: "phyrun.idle_frac", unit: "ratio"},
		metricDef{name: "paper.fj_over_decentral", unit: "ratio"},
		metricDef{name: "paper.t2_over_t1", unit: "ratio"},
		metricDef{name: "paper.descriptor_byte_share", unit: "ratio"},
		metricDef{name: "trace.wall_s", unit: "s"},
		metricDef{name: "trace.overhead_frac", unit: "ratio"},
		metricDef{name: "trace.unattributed_frac", unit: "ratio"},
	)
}()

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
