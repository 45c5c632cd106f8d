package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"syscall"
	"time"

	"repro/internal/phyrun"
)

// runResult is one run of one workload: a fixed number of ops, each on its
// own dataset derived from the seed.
type runResult struct {
	attempted, failed int
	metrics           map[string]float64
}

// digest is an op's final likelihood bits and a hash of its Newick string.
// Likelihoods are bit-reproducible, so two runs of one seed must print the
// same digest for every op.
func digest(out *outcome) string {
	h := fnv.New64a()
	io.WriteString(h, out.tree)
	return fmt.Sprintf("%016x/%016x", math.Float64bits(out.lnL), h.Sum64())
}

// dataSeed spreads run seeds apart so that neighbouring seeds share no op.
func dataSeed(seed int64, op int) int64 { return seed*1_000_003 + int64(op) }

// runWorkload performs one run. Untraced, it measures the end-to-end
// metrics. Traced, it runs every op twice — as the user would, then rebuilt
// from the layers with spans around every call — requires the two to agree
// bit for bit, and reports the per-layer metrics as means per op.
func runWorkload(w *workload, seed int64, seconds int, traced bool, spansDir string, log io.Writer) (*runResult, error) {
	ops := w.ops(seconds)
	if traced {
		ops = (ops + 1) / 2
	}
	res := &runResult{metrics: make(map[string]float64)}
	var walls, rels, rfs, setups []float64
	acc := make(map[string]float64) // per-layer sums over passed ops
	var tracedWall, plainWall, residual, twinWall float64
	var first *input

	for op := 0; op < ops; op++ {
		res.attempted++
		start := time.Now()
		in, err := w.setUp(dataSeed(seed, op))
		if err != nil {
			return nil, fmt.Errorf("set-up of op %d: %w", op, err)
		}
		setup := time.Since(start)
		if first == nil {
			first = in
		}
		cfg := w.config(in.searchSeed)

		runtime.GC() // every op starts from the same heap state
		out, err := w.infer(in, cfg)
		if err == nil {
			err = w.check(in, out)
		}
		var tr *trace
		if err == nil && traced {
			runtime.GC()
			var tout *outcome
			if tout, tr, err = w.inferTraced(in, cfg); err == nil && !sameResult(out, tout) {
				err = fmt.Errorf("traced run reached lnL %v, untraced %v: not the same computation", tout.lnL, out.lnL)
			} else if err == nil {
				tracedWall += tout.wall.Seconds()
			}
		}
		if err != nil {
			res.failed++
			fmt.Fprintf(log, "%s op %d FAILED: %v\n", w.name, op, err)
			continue
		}
		fmt.Fprintf(log, "op %d %s wall_s %.4f lnl %.4f ref %.4f iterations %d rf_true %d\n",
			op, digest(out), out.wall.Seconds(), out.lnL, in.refLnL, out.iterations, out.rfTrue)
		walls = append(walls, out.wall.Seconds())
		rels = append(rels, out.lnL/in.refLnL)
		rfs = append(rfs, float64(out.rfTrue))
		setups = append(setups, setup.Seconds())
		if !traced {
			continue
		}

		plainWall += out.wall.Seconds()
		residual += w.accumulate(acc, out, tr)
		if spansDir != "" {
			if err := writeSpans(spansDir, fmt.Sprintf("%s-seed%d-op%d", w.name, seed, op), tr.recs); err != nil {
				return nil, err
			}
		}
		if w.twin != nil {
			tcfg := cfg
			w.twin(&tcfg)
			runtime.GC()
			tw, err := w.infer(in, tcfg)
			if err != nil {
				return nil, fmt.Errorf("twin of op %d: %w", op, err)
			}
			twinWall += tw.wall.Seconds()
		}
	}

	passed := float64(len(walls))
	if passed == 0 {
		return nil, fmt.Errorf("all %d ops failed: no timing to report", res.attempted)
	}
	if err := w.checkRun(rels, rfs); err != nil {
		// The ops are wrong together, so every one of them counts as failed.
		res.failed = res.attempted
		fmt.Fprintf(log, "%s run FAILED: %v\n", w.name, err)
	}
	if !traced {
		res.metrics["wall_s"] = median(walls)
		res.metrics["neg_lnl_rel"] = median(rels)
		res.metrics["setup_s"] = median(setups)
		return res, nil
	}

	m := res.metrics
	for _, d := range perLayer {
		if v, ok := acc[d.name]; ok {
			m[d.name] = v / passed
		}
	}
	m["mem.live_heap_mb"] = acc["mem.live_heap_mb"] // a maximum, not a sum
	m["trace.wall_s"] = tracedWall / passed
	m["trace.overhead_frac"] = tracedWall/plainWall - 1
	m["trace.unattributed_frac"] = residual / tracedWall
	m["engine.evaluate_probe.share"] = acc["engine.evaluate_probe_s"] / tracedWall
	if iters := acc["search.iterations"]; iters > 0 {
		m["mpi.collectives_per_iter"] = acc["mpi.collectives"] / iters
	}
	if bytes := acc["mpi.bytes"]; bytes > 0 {
		m["paper.descriptor_byte_share"] = acc["mpi.bytes.traversal-descriptor"] / bytes
	}
	if c := w.campaign; c != nil {
		m["phyrun.idle_frac"] = 1 - acc["phyrun.busy_s"]/(acc["phyrun.run_s"]*float64(c.workers))
	}
	if w.twin != nil {
		m[w.twinMetric] = plainWall / twinWall
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["mem.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err := w.probes(first, w.config(first.searchSeed), m); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	return res, nil
}

// accumulate adds one traced op's layer numbers to acc and returns the
// op's unattributed residual in seconds.
func (w *workload) accumulate(acc map[string]float64, plain *outcome, tr *trace) float64 {
	layers, _, residual := aggregate(tr.recs[0].spans)
	for _, n := range spanSeconds {
		if l := layers[n]; l != nil {
			acc[n+"_s"] += l.total.Seconds()
		}
	}
	if w.campaign == nil {
		acc["msa.load_s"] += layers["msa.parse"].total.Seconds() + layers["msa.compress"].total.Seconds()
		acc["search.self_s"] += layers["search.run"].self.Seconds()
	}
	for _, n := range engineCalls {
		if l := layers[n]; l != nil {
			acc[n+".calls"] += float64(l.calls)
			acc[n+"_s"] += l.total.Seconds()
		}
	}
	for _, n := range []string{"transport.send", "transport.recv"} {
		if l := layers[n]; l != nil {
			acc["transport.msgs"] += float64(l.calls)
		}
	}
	acc["traversal.steps_probe"] += float64(tr.stepsProbe)
	acc["traversal.steps_trial"] += float64(tr.stepsTrial)
	acc["msa.patterns"] += float64(tr.patterns)
	acc["distrib.imbalance"] += tr.imbalance
	acc["mem.live_heap_mb"] = math.Max(acc["mem.live_heap_mb"], float64(tr.liveHeap)/(1<<20))
	acc["search.iterations"] += float64(plain.iterations)
	acc["search.rf_true"] += float64(plain.rfTrue)

	// The paper's yardsticks come from the untraced twin's own accounting.
	acc["mpi.collectives"] += float64(plain.comm.TotalOps)
	acc["mpi.regions"] += float64(plain.comm.TotalRegions)
	acc["mpi.bytes"] += float64(plain.comm.TotalBytes)
	for _, c := range plain.comm.Classes {
		acc["mpi.bytes."+c.Name] += float64(c.Bytes)
	}

	for kind, ds := range tr.tasks {
		busy := 0.0
		for _, d := range ds {
			busy += d.Seconds()
		}
		acc["phyrun.tasks"] += float64(len(ds))
		acc["phyrun.busy_s"] += busy
		name := "phyrun.task_start_s"
		if kind == phyrun.TaskReplicate {
			name = "phyrun.task_replicate_s"
		}
		acc[name] += busy / float64(len(ds)) // this op's mean task time
	}
	return residual.Seconds()
}
