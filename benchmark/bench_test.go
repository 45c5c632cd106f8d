package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
	"time"

	examl "repro"
)

// small is an 8-taxon stand-in for the matrix, fast enough for tier-1.
func small(scheme examl.Scheme, tcp bool) *workload {
	return &workload{
		name: "small", taxa: 8, parts: 3, geneLen: 60, rate: examl.GAMMA, scheme: scheme,
		ranks: 2, threads: 1, tcp: tcp, maxIter: 2, lnlSlack: 2e-2,
	}
}

// The traced op is rebuilt by hand from the layers' constructors; it is
// only worth anything if it is the same computation as the public entry
// points, bit for bit, for both schemes over both transports.
func TestTracedRunIsTheSameComputation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme examl.Scheme
		tcp    bool
	}{
		{"decentralized-chan", examl.Decentralized, false},
		{"decentralized-tcp", examl.Decentralized, true},
		{"forkjoin-chan", examl.ForkJoin, false},
		{"forkjoin-tcp", examl.ForkJoin, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := small(tc.scheme, tc.tcp)
			in, err := w.setUp(41)
			if err != nil {
				t.Fatal(err)
			}
			cfg := w.config(in.searchSeed)
			plain, err := w.infer(in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.check(in, plain); err != nil {
				t.Fatal(err)
			}
			traced, tr, err := w.inferTraced(in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(plain, traced) {
				t.Fatalf("traced lnL %v tree %s\nuntraced lnL %v tree %s", traced.lnL, traced.tree, plain.lnL, plain.tree)
			}

			layers, wall, residual := aggregate(tr.recs[0].spans)
			total := residual
			for _, l := range layers {
				total += l.self
			}
			if total != wall || wall != traced.wall {
				t.Errorf("self times + residual = %v, root span %v, reported wall %v", total, wall, traced.wall)
			}
			// Every SetShared, the initial push included, is followed by
			// exactly one Evaluate: that is what makes it a probe.
			probes, pushes := layers["engine.evaluate_probe"], layers["engine.set_shared"]
			if probes == nil || pushes == nil || probes.calls != pushes.calls {
				t.Errorf("evaluate_probe %+v, set_shared %+v: want equal call counts", probes, pushes)
			}
			if tc.tcp && layers["transport.recv"] == nil {
				t.Error("no transport spans over TCP")
			}
			if tr.stepsProbe == 0 || tr.stepsTrial == 0 || tr.patterns == 0 || tr.liveHeap == 0 {
				t.Errorf("counters not filled: %+v", tr)
			}
		})
	}
}

func TestTracedCampaignIsTheSameComputation(t *testing.T) {
	w := small(examl.Decentralized, false)
	w.ranks = 1
	w.campaign = &campaignShape{randomStarts: 1, parsimonyStarts: 1, replicates: 2, workers: 2}
	in, err := w.setUp(43)
	if err != nil {
		t.Fatal(err)
	}
	cfg := w.config(in.searchSeed)
	plain, err := w.infer(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.check(in, plain); err != nil {
		t.Fatal(err)
	}
	traced, tr, err := w.inferTraced(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(plain, traced) {
		t.Fatalf("traced campaign best lnL %v, untraced %v", traced.lnL, plain.lnL)
	}
	n := 0
	for _, ds := range tr.tasks {
		n += len(ds)
	}
	if n != w.campaign.tasks() {
		t.Errorf("runner decorator saw %d tasks, want %d", n, w.campaign.tasks())
	}
}

func TestAggregateSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "search.run", Start: 10, End: 90},
		{ID: 2, Parent: 1, Name: "engine.evaluate_trial", Start: 20, End: 50},
		{ID: 3, Parent: 2, Name: "transport.recv", Start: 30, End: 40},
		{ID: 4, Parent: 1, Name: "engine.evaluate_trial", Start: 60, End: 70},
	}
	layers, wall, residual := aggregate(spans)
	if wall != 100 || residual != 20 {
		t.Errorf("wall %d residual %d, want 100 and 20", wall, residual)
	}
	if l := layers["search.run"]; l.total != 80 || l.self != 40 {
		t.Errorf("search.run %+v, want total 80 self 40", l)
	}
	if l := layers["engine.evaluate_trial"]; l.calls != 2 || l.total != 40 || l.self != 30 {
		t.Errorf("engine.evaluate_trial %+v, want 2 calls, total 40, self 30", l)
	}
}

// One op far from the generating tree is a dataset's doing; a run of them is
// the search's.
func TestCheckRun(t *testing.T) {
	w := &workload{taxa: 16, lnlSlack: 5e-3}
	if err := w.checkRun([]float64{0.998, 1.004, 0.999}, []float64{2, 14, 0}); err != nil {
		t.Errorf("one outlying op failed the run: %v", err)
	}
	if err := w.checkRun([]float64{1.006, 1.007, 0.999}, []float64{2, 4, 0}); err == nil {
		t.Error("a median shortfall of 0.6 % passed a slack of 0.5 %")
	}
	if err := w.checkRun([]float64{0.998, 0.998, 0.999}, []float64{14, 16, 12}); err == nil {
		t.Error("a mean Robinson-Foulds distance of 14 passed on 16 taxa")
	}
}

func TestVerdict(t *testing.T) {
	s := func(median, min, max float64) *summary { return &summary{Median: median, Min: min, Max: max} }
	for _, tc := range []struct {
		old, new *summary
		bound    float64
		want     string
	}{
		{s(10, 9.9, 10.1), s(10.5, 10.4, 10.6), 0.1, "within bound"},
		{s(10, 9.9, 10.1), s(12, 11.9, 12.1), 0.1, "regressed"},
		{s(10, 9.9, 10.1), s(8, 7.9, 8.1), 0.1, "improved"},
		{s(10, 9, 11.5), s(12, 11.9, 12.1), 0.1, "unresolved"},
		// The likelihood repeats exactly on one seed: anything worse regresses.
		{s(0.999, 0.999, 0.999), s(0.99901, 0.99901, 0.99901), 1e-9, "regressed"},
		{s(0.999, 0.999, 0.999), s(0.999, 0.999, 0.999), 1e-9, "within bound"},
	} {
		if got := verdict(tc.old, tc.new, tc.bound); got != tc.want {
			t.Errorf("verdict(%+v, %+v, %g) = %q, want %q", tc.old, tc.new, tc.bound, got, tc.want)
		}
	}
}

// Records of different seeds measured different datasets; -compare gates
// the likelihood at 1e-9 and must not read them against each other.
func TestCompareRefusesDifferentSeeds(t *testing.T) {
	a, b := &record{Seed: 5, Runs: matrixRuns, Seconds: 10}, &record{Seed: 11, Runs: matrixRuns, Seconds: 10}
	if status := compare(a, b, io.Discard); status != 2 {
		t.Errorf("compare of seeds 5 and 11 returned %d, want 2", status)
	}
}

// The metric and workload tables in the code and BENCHMARK.json are two
// copies of one definition.
func TestDefinitionMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(def.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name || !name.MatchString(w.name) {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, def.Workloads[i].Name, w.name)
		}
		if n := len(def.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, n)
		}
	}
	if len(def.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(def.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		j := def.EndToEnd[i]
		if j.Name != d.name || j.Unit != d.unit || j.Bound != d.bound || j.Better != "lower" {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in code", i, j, d)
		}
	}
	if len(def.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(def.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	for i, d := range perLayer {
		j := def.PerLayer[i]
		if j.Name != d.name || j.Unit != d.unit {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in code", i, j, d)
		}
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
			t.Errorf("per-layer metric %q (%s): bad or repeated name or unit", d.name, d.unit)
		}
		seen[d.name] = true
	}
}

// A run's op count, and so its inputs, depend on the flags alone.
func TestOpsFollowSeconds(t *testing.T) {
	for _, w := range workloads {
		if a, b := w.ops(12), w.ops(24); a < 6 || b < 2*a-1 || b > 2*a+1 {
			t.Errorf("%s: ops(12) = %d, ops(24) = %d", w.name, a, b)
		}
		if w.ops(1) < 3 {
			t.Errorf("%s: ops(1) = %d, want at least 3", w.name, w.ops(1))
		}
	}
}

// runWorkload end to end on the small stand-in: the metrics a run prints
// are exactly the ones the tables name.
func TestRunWorkloadFillsEveryMetric(t *testing.T) {
	w := small(examl.Decentralized, true)
	w.parts, w.geneLen, w.maxIter, w.opSeconds = 2, 40, 1, 4
	start := time.Now()
	for _, traced := range []bool{false, true} {
		res, err := runWorkload(w, 7, 10, traced, "", os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Fatalf("%d of %d ops failed", res.failed, res.attempted)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		known := make(map[string]bool)
		for _, d := range defs {
			known[d.name] = true
		}
		for k := range res.metrics {
			if !known[k] {
				t.Errorf("traced=%v: metric %s measured but not in the table", traced, k)
			}
		}
		must := []string{"wall_s", "neg_lnl_rel", "setup_s"}
		if traced {
			must = []string{"trace.wall_s", "engine.evaluate_probe_s", "search.self_s", "transport.recv_s", "mpi.collectives",
				"kernel.eval_full_ms", "mpinet.allreduce_tcp_us", "mem.peak_rss_mb", "mem.live_heap_mb"}
		}
		for _, k := range must {
			if !(res.metrics[k] > 0) {
				t.Errorf("traced=%v: metric %s = %v, want > 0", traced, k, res.metrics[k])
			}
		}
		if traced && res.metrics["trace.unattributed_frac"] > 0.02 {
			t.Errorf("unattributed share %.4f > 0.02", res.metrics["trace.unattributed_frac"])
		}
	}
	t.Logf("two runs took %v", time.Since(start))
}
