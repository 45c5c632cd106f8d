package examl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// TestTelemetryBitIdentity is the observability contract test: enabling
// telemetry (spans, counters, even the JSONL trace) must not change a
// single bit of the inference — same final log likelihood, same tree —
// for both schemes and across intra-rank thread counts. Timing is read
// out-of-band; nothing it touches feeds a likelihood or a reduction.
func TestTelemetryBitIdentity(t *testing.T) {
	d, err := Simulate(10, 3, 80, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{Decentralized, ForkJoin} {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/T=%d", scheme, threads), func(t *testing.T) {
				base := Config{
					Scheme:        scheme,
					Ranks:         3,
					Threads:       threads,
					MaxIterations: 2,
					Seed:          11,
				}
				plain, err := Infer(d, base)
				if err != nil {
					t.Fatal(err)
				}
				if plain.Telemetry != nil {
					t.Fatal("telemetry report present without Config.Telemetry")
				}

				instrumented := base
				instrumented.Telemetry = true
				var trace bytes.Buffer
				instrumented.TraceWriter = &trace
				traced, err := Infer(d, instrumented)
				if err != nil {
					t.Fatal(err)
				}

				if math.Float64bits(traced.LogLikelihood) != math.Float64bits(plain.LogLikelihood) {
					t.Errorf("lnL diverged: telemetry %v vs plain %v", traced.LogLikelihood, plain.LogLikelihood)
				}
				if traced.Tree != plain.Tree {
					t.Error("tree diverged under telemetry")
				}
				if traced.Iterations != plain.Iterations {
					t.Errorf("iterations diverged: %d vs %d", traced.Iterations, plain.Iterations)
				}

				rep := traced.Telemetry
				if rep == nil {
					t.Fatal("no telemetry report despite Config.Telemetry")
				}
				if rep.Ranks != 3 {
					t.Errorf("report ranks = %d, want 3", rep.Ranks)
				}
				var kernelOps int64
				for _, k := range rep.Kernels {
					kernelOps += k.Ops
				}
				if kernelOps == 0 {
					t.Error("no kernel spans recorded")
				}
				if rep.ImbalanceRatio < 1 {
					t.Errorf("imbalance ratio %v < 1 (max/mean cannot be)", rep.ImbalanceRatio)
				}
				if rep.CommFraction <= 0 || rep.CommFraction >= 1 {
					t.Errorf("comm fraction %v outside (0,1)", rep.CommFraction)
				}
				if rep.Sites <= 0 || rep.LaneShare < 0 || rep.LaneShare > 1 {
					t.Errorf("run reported %d sites, lane share %v", rep.Sites, rep.LaneShare)
				}
				if rep.Counters["iterations"] != int64(traced.Iterations) {
					t.Errorf("iterations counter %d != result %d", rep.Counters["iterations"], traced.Iterations)
				}
				if threads > 1 && rep.PoolUtilization <= 0 {
					t.Error("threaded run reported no pool utilization")
				}
				if rep.EngineCalls <= 0 || rep.PoolDispatches > rep.EngineCalls || (threads > 1) != (rep.PoolDispatches > 0) {
					t.Errorf("T=%d: %d engine calls, %d pool dispatches", threads, rep.EngineCalls, rep.PoolDispatches)
				}
			})
		}
	}
}

// TestTelemetryTraceIsValidJSONL checks every line the TraceWriter sink
// emits parses as a JSON span event.
func TestTelemetryTraceIsValidJSONL(t *testing.T) {
	d, err := Simulate(8, 2, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	_, err = Infer(d, Config{Ranks: 2, MaxIterations: 1, Seed: 5, TraceWriter: &trace})
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	perfEvents := 0
	metaEvents := 0
	iterEvents := 0
	sc := bufio.NewScanner(&trace)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		var ev struct {
			Ev      string `json:"ev"`
			Rank    int    `json:"rank"`
			Kind    string `json:"kind"`
			Class   string `json:"class"`
			DurNS   int64  `json:"dur_ns"`
			TipTabs int64  `json:"tip_table_entries"`
			Calls   int64  `json:"engine_calls"`
			Disp    int64  `json:"pool_dispatches"`
			Wakes   int64  `json:"pool_wakes"`
			Polled  int64  `json:"recv_polled"`
			Parked  int64  `json:"recv_parked"`
			Ranks   int    `json:"ranks"`
			StartNS int64  `json:"start_unix_ns"`
			Iter    int    `json:"iter"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v: %s", lines, err, sc.Text())
		}
		if ev.Rank < 0 || ev.Rank >= 2 {
			t.Fatalf("line %d: bad rank %+v", lines, ev)
		}
		switch ev.Ev {
		case "meta":
			// One-time stream header: rank count plus the wall-clock epoch
			// phytrace uses to align traces from different processes.
			metaEvents++
			if lines != 1 {
				t.Fatalf("meta event on line %d, want line 1", lines)
			}
			if ev.Ranks != 2 || ev.StartNS <= 0 {
				t.Fatalf("line %d: malformed meta %+v", lines, ev)
			}
		case "iter":
			// Per-iteration marker for critical-path windowing.
			iterEvents++
			if ev.Iter < 1 {
				t.Fatalf("line %d: malformed iter %+v", lines, ev)
			}
		case "span":
			if ev.Class == "" {
				t.Fatalf("line %d: malformed span %+v", lines, ev)
			}
			if ev.Kind != "kernel" && ev.Kind != "collective" {
				t.Fatalf("line %d: unknown span kind %q", lines, ev.Kind)
			}
		case "perf":
			// Kernel fast-path summary, emitted once per rank at engine
			// close; the tip tables must have been filled on this dataset.
			perfEvents++
			if ev.TipTabs <= 0 {
				t.Fatalf("line %d: perf event without tip-table entries %+v", lines, ev)
			}
			// The same event carries the intra-rank execution counters: an
			// engine call is at most one pool dispatch, and these ranks run
			// one thread each, so none went to a pool.
			if ev.Calls <= 0 || ev.Disp != 0 || ev.Wakes != 0 {
				t.Fatalf("line %d: perf event of a serial rank with %d engine calls, %d pool dispatches, %d wakes", lines, ev.Calls, ev.Disp, ev.Wakes)
			}
			// And the rank's receive counters: a two-rank world polls only
			// when each rank can hold a processor.
			if ev.Polled+ev.Parked <= 0 || (runtime.GOMAXPROCS(0) < 2 && ev.Polled != 0) {
				t.Fatalf("line %d: perf event with %d polled and %d parked receives under GOMAXPROCS(%d)", lines, ev.Polled, ev.Parked, runtime.GOMAXPROCS(0))
			}
		default:
			t.Fatalf("line %d: unknown event type %q", lines, ev.Ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("TraceWriter produced no events")
	}
	if perfEvents != 2 {
		t.Fatalf("expected one perf event per rank, got %d", perfEvents)
	}
	if metaEvents != 1 {
		t.Fatalf("expected exactly one meta header, got %d", metaEvents)
	}
	if iterEvents == 0 {
		t.Fatal("expected per-iteration markers in the trace")
	}
}

// TestModelSearchCostGate gates what a model-parameter round costs on the
// golden dataset (3 partitions, GTR+Γ: 6 scalars): the counters repeat
// exactly, so unlike a time they can gate. A round of the fixed-count
// golden section cost 90 probes of all 3 partitions = 270 partition
// evaluations; the lockstep Brent search measures 55.5 probes and 144.5
// partition evaluations per round here (docs/PERFORMANCE.md §9), and the
// gate is that plus 5 %. No scalar may take more than 14 probes.
func TestModelSearchCostGate(t *testing.T) {
	d, err := goldenDataset(9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Infer(d, Config{Ranks: 2, Seed: 11, MaxIterations: 2, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Telemetry
	rounds := float64(rep.Counters["model-opt-rounds"])
	probes, evals := float64(rep.Counters["model-probes"]), float64(rep.Counters["model-partition-evals"])
	if rounds == 0 || probes == 0 {
		t.Fatalf("counters not filled: %v", rep.Counters)
	}
	t.Logf("%v rounds, %v probes, %v partition evaluations", rounds, probes, evals)
	if probes/rounds > 6*14 {
		t.Errorf("%.1f probes per round: some scalar took more than 14", probes/rounds)
	}
	if got, limit := probes/rounds, 55.5*1.05; got > limit {
		t.Errorf("%.1f model probes per round, gate %.1f", got, limit)
	}
	if got, limit := evals/rounds, 144.5*1.05; got > limit {
		t.Errorf("%.1f partition evaluations per model round, gate %.1f (fixed-count golden section: 270)", got, limit)
	}
	if rep.ModelProbesPerRound != probes/rounds || rep.ActivePartitionsPerProbe != evals/probes {
		t.Errorf("report says %.2f probes per round and %.2f partitions per probe, counters %.2f and %.2f",
			rep.ModelProbesPerRound, rep.ActivePartitionsPerProbe, probes/rounds, evals/probes)
	}
}
