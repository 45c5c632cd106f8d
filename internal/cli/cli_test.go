package cli

import (
	"flag"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/msa"
	"repro/internal/seqgen"
)

func TestValidateAcceptsDefaults(t *testing.T) {
	a := Args{Ranks: 1, Threads: 1, NetRank: -1}
	if err := Validate(a); err != nil {
		t.Fatalf("default args rejected: %v", err)
	}
	a = Args{Ranks: 8, Threads: 4, MaxIter: 10, Scheme: examl.Decentralized, NetRank: -1}
	if err := Validate(a); err != nil {
		t.Fatalf("ranks × threads args rejected: %v", err)
	}
	// In network mode the world is -net-size processes, whatever -np says.
	a = Args{Ranks: 1, Threads: 1, NetRank: 3, NetSize: 4, NetAddr: "127.0.0.1:7000"}
	if err := Validate(a); err != nil {
		t.Fatalf("-net-rank 3 of a -net-size 4 world rejected: %v", err)
	}
}

func TestValidateRejectsBadValues(t *testing.T) {
	cases := []struct {
		name string
		args Args
		want string
	}{
		{"zero ranks", Args{Ranks: 0, Threads: 1}, "-np"},
		{"negative ranks", Args{Ranks: -3, Threads: 1}, "-np"},
		{"zero threads", Args{Ranks: 1, Threads: 0}, "-T"},
		{"negative threads", Args{Ranks: 1, Threads: -2}, "-T"},
		{"negative iterations", Args{Ranks: 1, Threads: 1, MaxIter: -1}, "-iter"},
		{"pprof without metrics addr", Args{Ranks: 1, Threads: 1, NetRank: -1, Pprof: true}, "-metrics-addr"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.args)
			if err == nil {
				t.Fatalf("Validate(%+v) accepted invalid args", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestMetricsAddrImpliesTelemetry(t *testing.T) {
	a := Args{Ranks: 1, Threads: 1, NetRank: -1}
	if a.telemetryRequested() {
		t.Fatal("bare args should not request telemetry")
	}
	a.MetricsAddr = "127.0.0.1:0"
	if !a.telemetryRequested() {
		t.Fatal("-metrics-addr must imply telemetry collection (it feeds the kernel gauges)")
	}
	if err := Validate(a); err != nil {
		t.Fatalf("metrics-addr args rejected: %v", err)
	}
}

// TestStartObservability serves a real listener and checks that
// /metrics renders Prometheus text and that pprof only mounts when
// asked for.
func TestStartObservability(t *testing.T) {
	get := func(addr Args) (metricsStatus, pprofStatus int, body string) {
		t.Helper()
		stop, err := startObservability(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		// startObservability prints the bound address but does not
		// return it; bind a fixed port instead of parsing stdout.
		resp, err := http.Get("http://" + addr.MetricsAddr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		pr, err := http.Get("http://" + addr.MetricsAddr + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, pr.Body)
		pr.Body.Close()
		return resp.StatusCode, pr.StatusCode, string(raw)
	}

	addr := freeAddr(t)
	ms, ps, body := get(Args{MetricsAddr: addr})
	if ms != http.StatusOK {
		t.Fatalf("/metrics: %d", ms)
	}
	if ps != http.StatusNotFound {
		t.Fatalf("pprof mounted without -pprof: %d", ps)
	}
	if !strings.Contains(body, "# TYPE ") {
		t.Fatalf("scrape is not Prometheus text:\n%s", body)
	}

	addr = freeAddr(t)
	if _, ps, _ = get(Args{MetricsAddr: addr, Pprof: true}); ps != http.StatusOK {
		t.Fatalf("pprof index with -pprof: %d", ps)
	}

	stop, err := startObservability(Args{})
	if err != nil {
		t.Fatalf("empty metrics addr must be a no-op: %v", err)
	}
	stop()
}

// freeAddr reserves a currently-free loopback host:port.
func freeAddr(t *testing.T) string {
	t.Helper()
	addr, err := freeLoopbackAddr()
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

func TestRunRejectsInvalidArgsBeforeIO(t *testing.T) {
	// Validation must fire before any file access: an invalid flag with a
	// nonexistent alignment path should report the flag, not the file.
	_, err := Run(Args{Ranks: 0, Threads: 1, AlignPath: "/nonexistent.phy"})
	if err == nil || !strings.Contains(err.Error(), "-np") {
		t.Fatalf("got %v, want -np validation error", err)
	}
}

// TestReadmeOptionTableMatchesFlags registers the shared flag set and
// holds it to README's option table in both directions: a flag the table
// omits and a table entry no flag stands behind both fail. The count of
// CLI options is whatever this enumeration finds.
func TestReadmeOptionTableMatchesFlags(t *testing.T) {
	Register(&Args{})
	registered := map[string]bool{}
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			registered[f.Name] = true
		}
	})

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, found := strings.Cut(string(readme), "| flag | meaning |\n|---|---|\n")
	if !found {
		t.Fatal("README.md has no `| flag | meaning |` option table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	documented := map[string]bool{}
	name := regexp.MustCompile("`-([^`]+)`")
	for _, row := range strings.Split(table, "\n") {
		cells := strings.Split(row, "|")
		if len(cells) < 3 {
			t.Fatalf("malformed option table row %q", row)
		}
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			if documented[m[1]] {
				t.Errorf("README documents -%s twice", m[1])
			}
			documented[m[1]] = true
		}
	}

	var missing, stale []string
	for f := range registered {
		if !documented[f] {
			missing = append(missing, "-"+f)
		}
	}
	for f := range documented {
		if !registered[f] {
			stale = append(stale, "-"+f)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("flags registered but absent from README's option table: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("README's option table lists flags that are not registered: %v", stale)
	}
	t.Logf("%d flags registered, %d documented", len(registered), len(documented))
}

// TestRunFromFilesMatchesInfer writes a simulated dataset as a PHYLIP
// file plus a partition file and holds a 2-rank cli.Run of them to
// examl.Infer on the same dataset built in memory: parsing, pattern
// compression and flag translation must leave every bit of the result
// unchanged.
func TestRunFromFilesMatchesInfer(t *testing.T) {
	const taxa, parts, geneLen, dataSeed, seed, iters = 10, 2, 60, 33, 7, 3
	d, err := examl.Simulate(taxa, parts, geneLen, dataSeed)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := examl.Infer(d, examl.Config{Ranks: 2, Seed: seed, MaxIterations: iters})
	if err != nil {
		t.Fatal(err)
	}

	gen, err := seqgen.Generate(seqgen.PartitionedGenes(taxa, parts, geneLen, dataSeed))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	phy, err := os.Create(filepath.Join(dir, "d.phy"))
	if err != nil {
		t.Fatal(err)
	}
	if err := msa.WritePhylip(phy, gen.Alignment); err != nil {
		t.Fatal(err)
	}
	if err := phy.Close(); err != nil {
		t.Fatal(err)
	}
	partPath := filepath.Join(dir, "d.parts.txt")
	if err := os.WriteFile(partPath, []byte(msa.FormatPartitionFile(gen.Partitions)), 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := Run(Args{
		AlignPath: phy.Name(), PartPath: partPath, ModelName: "GAMMA", SubstName: "GTR",
		Ranks: 2, Threads: 1, Seed: seed, MaxIter: iters, NetRank: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := math.Float64bits(res.LogLikelihood), math.Float64bits(ref.LogLikelihood); got != want {
		t.Errorf("lnL bits %016x, want examl.Infer's %016x", got, want)
	}
	if res.Tree != ref.Tree {
		t.Errorf("tree differs from examl.Infer's:\n got %s\nwant %s", res.Tree, ref.Tree)
	}
}

// TestBannerNamesTheWorld: the banner counts the ranks of the world the
// run is on — -net-size processes in network mode, whatever -np says,
// else -np — and says what the distribution did on them.
func TestBannerNamesTheWorld(t *testing.T) {
	d, err := examl.Simulate(8, 2, 80, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := examl.Config{RateModel: examl.GAMMA}
	for _, tc := range []struct {
		args Args
		want string
	}{
		{Args{Ranks: 1, Threads: 1, NetRank: 0, NetSize: 2, NetAddr: "127.0.0.1:7000"},
			"scheme: decentralized, 2 ranks x 1 threads, GAMMA, at most 2 partitions per rank, 1 split\n"},
		{Args{Ranks: 3, Threads: 2, NetRank: -1},
			"scheme: decentralized, 3 ranks x 2 threads, GAMMA, at most 2 partitions per rank, 2 split\n"},
		{Args{Ranks: 1, Threads: 1, NetRank: -1},
			"scheme: decentralized, 1 ranks x 1 threads, GAMMA, at most 2 partitions per rank, 0 split\n"},
	} {
		b, err := banner(tc.args, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(b, "dataset: 8 taxa, 2 partitions, 160 sites") || !strings.HasSuffix(b, tc.want) {
			t.Errorf("banner for %+v:\n%s\nwant it to end in\n%s", tc.args, b, tc.want)
		}
	}
}
