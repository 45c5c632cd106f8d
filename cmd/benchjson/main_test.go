package main

import "testing"

func TestParseBenchLine(t *testing.T) {
	rec, procs, ok := parseBenchLine(
		"BenchmarkKernelThreadsGamma/T=4-16    100    123456 ns/op    500 flops/op    4.0 threads")
	if !ok {
		t.Fatal("benchmark line rejected")
	}
	if rec.Name != "KernelThreadsGamma/T=4" {
		t.Fatalf("name = %q", rec.Name)
	}
	if procs != 16 {
		t.Fatalf("gomaxprocs suffix = %d, want 16", procs)
	}
	if rec.NsPerOp != 123456 || rec.Iterations != 100 {
		t.Fatalf("rec = %+v", rec)
	}
	if rec.Metrics["threads"] != 4 {
		t.Fatalf("metrics = %v", rec.Metrics)
	}
	wantFlops := rec.Metrics["flops/op"] / rec.NsPerOp * 1e9
	if rec.FlopsPerSec != wantFlops {
		t.Fatalf("flops/s = %v, want %v", rec.FlopsPerSec, wantFlops)
	}
	if rec.BytesPerSec != 0 || rec.ArithmeticIntensity != 0 {
		t.Fatalf("roofline fields set without bytes/op: %+v", rec)
	}

	// A dashed sub-benchmark name without a numeric suffix keeps its
	// trailing element.
	rec, procs, ok = parseBenchLine("BenchmarkFoo/mode=fast-path    10    5 ns/op")
	if !ok || procs != 0 || rec.Name != "Foo/mode=fast-path" {
		t.Fatalf("rec = %+v procs = %d ok = %v", rec, procs, ok)
	}

	for _, junk := range []string{"PASS", "ok  \trepro\t1.2s", "goos: linux", ""} {
		if _, _, ok := parseBenchLine(junk); ok {
			t.Fatalf("junk line %q accepted", junk)
		}
	}
}

// TestRooflineFields pins the derived roofline quantities
// (docs/PERFORMANCE.md §6): achieved bytes/s and arithmetic intensity
// from a row reporting both flops/op and bytes/op.
func TestRooflineFields(t *testing.T) {
	rec, _, ok := parseBenchLine(
		"BenchmarkKernelThreadsGamma/T=1-4    50    2000000 ns/op    4800000 flops/op    3840000 bytes/op")
	if !ok {
		t.Fatal("benchmark line rejected")
	}
	if want := 4800000.0 / 2000000 * 1e9; rec.FlopsPerSec != want {
		t.Errorf("flops_per_sec = %g, want %g", rec.FlopsPerSec, want)
	}
	if want := 3840000.0 / 2000000 * 1e9; rec.BytesPerSec != want {
		t.Errorf("bytes_per_sec = %g, want %g", rec.BytesPerSec, want)
	}
	if want := 4800000.0 / 3840000.0; rec.ArithmeticIntensity != want {
		t.Errorf("arithmetic_intensity = %g, want %g", rec.ArithmeticIntensity, want)
	}
}

// TestValidateGomaxprocs pins the stale-benchmark guard: a T-thread row
// captured with fewer schedulable procs than min(T, NumCPU) is
// rejected, while the same row on a machine that physically cannot
// offer T procs passes (the hardware-aware clamp).
func TestValidateGomaxprocs(t *testing.T) {
	mk := func(threads, procs float64) Record {
		return Record{Name: "KernelThreadsGamma/T=4", NsPerOp: 1,
			Metrics: map[string]float64{"threads": threads, "gomaxprocs": procs}}
	}
	cases := []struct {
		name   string
		numCPU int
		rec    Record
		wantOK bool
	}{
		{"enough procs", 16, mk(4, 4), true},
		{"oversubscribed capture", 16, mk(4, 1), false},
		{"clamped by hardware", 1, mk(4, 1), true},
		{"partially clamped", 2, mk(4, 1), false},
		{"serial row exempt", 16, mk(1, 1), true},
		{"no threads metric exempt", 16, Record{Name: "X", NsPerOp: 1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := Document{Env: Env{NumCPU: tc.numCPU}, Benchmarks: []Record{tc.rec}}
			err := validate(&doc)
			if (err == nil) != tc.wantOK {
				t.Errorf("validate with num_cpu=%d, metrics=%v: err=%v, wantOK=%v",
					tc.numCPU, tc.rec.Metrics, err, tc.wantOK)
			}
		})
	}
}

// TestValidateEnvFallback covers rows without a per-row gomaxprocs
// metric: the env-level value (from the -N name suffix) applies.
func TestValidateEnvFallback(t *testing.T) {
	doc := Document{
		Env: Env{NumCPU: 8, GOMAXPROCS: 2},
		Benchmarks: []Record{{Name: "X/T=4", NsPerOp: 1,
			Metrics: map[string]float64{"threads": 4}}},
	}
	if err := validate(&doc); err == nil {
		t.Error("validate accepted threads=4 with env gomaxprocs=2 on an 8-CPU machine")
	}
	doc.Env.GOMAXPROCS = 4
	if err := validate(&doc); err != nil {
		t.Errorf("validate rejected threads=4 with env gomaxprocs=4: %v", err)
	}
}

func TestParseHeaderLine(t *testing.T) {
	var env Env
	parseHeaderLine("goos: linux", &env)
	parseHeaderLine("goarch: arm64", &env)
	parseHeaderLine("cpu: Apple M3", &env)
	parseHeaderLine("BenchmarkFoo-8 1 1 ns/op", &env)
	if env.GOOS != "linux" || env.GOARCH != "arm64" || env.CPU != "Apple M3" {
		t.Fatalf("env = %+v", env)
	}
}
