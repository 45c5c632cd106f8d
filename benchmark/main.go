// Command benchmark measures whole phylogenetic inferences end to end and,
// in a separate traced run, layer by layer from outside the layers.
//
// One run of one workload (what BENCHMARK.json's command invokes):
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// prints one JSON object as its last line. Without --workload it runs the
// whole matrix, each run in its own child process, and prints every metric
// as "<workload> <metric> <value> <unit>"; -compare OLD.json NEW.json
// compares two such records. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this workload once and print one JSON result line (default: the whole matrix)")
		seed    = flag.Int64("seed", 5, "input seed: the same seed gives the same datasets")
		seconds = flag.Int("seconds", 10, "nominal measured seconds per run; sets the number of ops")
		traced  = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics")
		spans   = flag.String("spans", "", "traced runs also write their spans as JSONL files into this directory")
		jsonOut = flag.String("json", "", "matrix mode: also write the record to this file")
		compare = flag.Bool("compare", false, "compare two records: -compare OLD.json NEW.json")
	)
	flag.Parse()
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: -compare OLD.json NEW.json")
		}
		os.Exit(compareRecords(flag.Arg(0), flag.Arg(1), os.Stdout))
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fatalf("unknown workload %q", *name)
		}
		if runtime.GOMAXPROCS(0) < 2 {
			fmt.Fprintln(os.Stderr, "warning: GOMAXPROCS < 2: ranks and threads share one core, timings mean little")
		}
		res, err := runWorkload(w, *seed, *seconds, *traced != 0, *spans, os.Stdout)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		printResult(res, *traced != 0)
	default:
		os.Exit(runMatrix(*seed, *seconds, *spans, *jsonOut))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult writes the result line.
func printResult(res *runResult, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{Value: res.metrics[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(b))
}
