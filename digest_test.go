package examl

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// digestExempt lists the Config fields inputDigest leaves out, each with
// the reason it moves no bit that two ranks, or a campaign and its
// resume, could disagree on.
var digestExempt = map[string]string{
	"Ranks":          "the world size: a rendezvous pins it as mpinet's Size, a campaign mixes it in (CampaignDigest)",
	"Threads":        "DETERMINISM's thread axis: bits are equal at every thread count",
	"CheckpointPath": "where checkpoints are written; writing one moves no bit",
	"RestorePath":    "a file's name, not its content: the restore checks the state against the dataset itself",
	"Telemetry":      "observational: an instrumented run is bit-identical to an uninstrumented one",
	"TraceWriter":    "observational, like Telemetry",
	"TraceLabel":     "observational: it names the run's trace events",
	"OnProgress":     "observational: the hook must not mutate search state",
}

// flip returns v changed: a bool negated, a number or string moved.
func flip(v reflect.Value) (reflect.Value, bool) {
	out := reflect.New(v.Type()).Elem()
	out.Set(v)
	switch v.Kind() {
	case reflect.Bool:
		out.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		out.SetInt(v.Int() + 1)
	case reflect.Float64:
		out.SetFloat(v.Float() + 0.25)
	case reflect.String:
		out.SetString(v.String() + "((a,b),c,d);")
	default:
		return v, false
	}
	return out, true
}

// TestInputDigestCoversConfig walks Config by reflection: every field is
// hashed, so changing it changes the digest, or exempt with a reason, so
// changing it does not. A field added to Config without a decision here
// fails.
func TestInputDigestCoversConfig(t *testing.T) {
	d, err := Simulate(6, 2, 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Ranks: 2, MaxIterations: 3, Epsilon: 0.1, Seed: 7}
	want := inputDigest(d, base)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		cfg := base
		v, ok := flip(reflect.ValueOf(base).Field(i))
		if ok {
			reflect.ValueOf(&cfg).Elem().Field(i).Set(v)
		}
		reason, exempt := digestExempt[f.Name]
		switch {
		case exempt && ok && inputDigest(d, cfg) != want:
			t.Errorf("Config.%s is exempt (%s) but moves the digest", f.Name, reason)
		case !exempt && (!ok || inputDigest(d, cfg) == want):
			t.Errorf("Config.%s is neither hashed by inputDigest nor exempt in digestExempt", f.Name)
		}
	}
	for name := range digestExempt {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("digestExempt names Config.%s, which does not exist", name)
		}
	}
}

// TestInputDigestCoversTaxonNames: the names are written into every
// tree, so renaming a taxon changes the digest; wrapping the same
// sequences differently in the PHYLIP file does not.
func TestInputDigestCoversTaxonNames(t *testing.T) {
	const phy = "4 12\nalpha ACGTACGTACGT\nbeta  ACGAACGTACGA\ngamma ACTTACGAACGT\ndelta TCGTACGTTCGT\n"
	load := func(text string) uint64 {
		t.Helper()
		d, err := LoadPhylip(strings.NewReader(text), "")
		if err != nil {
			t.Fatal(err)
		}
		return inputDigest(d, Config{})
	}
	want := load(phy)
	if got := load(strings.Replace(phy, "gamma", "gamme", 1)); got == want {
		t.Error("renaming a taxon leaves the digest unchanged")
	}
	wrapped := "4 12\nalpha ACGTAC\nbeta  ACGAAC\ngamma ACTTAC\ndelta TCGTAC\n\nGTACGT\nGTACGA\nGAACGT\nGTTCGT\n"
	if got := load(wrapped); got != want {
		t.Error("an interleaved copy of the same alignment changes the digest")
	}
}

// TestBootstrapResumeRefusesOtherInputs: a BootstrapWithOptions manifest
// pins the inputs digest, so resuming it with another iteration cap or
// rank count is refused and leaves the manifest as it was, while a
// resume that changes only the thread count restores the same result.
func TestBootstrapResumeRefusesOtherInputs(t *testing.T) {
	d, err := Simulate(6, 1, 40, 13)
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(t.TempDir(), "boot.json")
	cfg := Config{MaxIterations: 1, Seed: 5}
	opts := BootstrapOptions{ManifestPath: manifest}
	first, err := BootstrapWithOptions(d, cfg, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	for name, other := range map[string]Config{
		"MaxIterations": {MaxIterations: 2, Seed: 5},
		"Ranks":         {MaxIterations: 1, Seed: 5, Ranks: 2},
	} {
		if _, err := BootstrapWithOptions(d, other, 2, opts); err == nil || !strings.Contains(err.Error(), "inputs digest") {
			t.Errorf("resume with another %s: got %v, want a refusal naming the inputs digest", name, err)
		}
		if after, err := os.ReadFile(manifest); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("a refused resume (%s) rewrote the manifest (%v)", name, err)
		}
	}
	threads := cfg
	threads.Threads = 2
	again, err := BootstrapWithOptions(d, threads, 2, opts)
	if err != nil {
		t.Fatalf("resume with another thread count refused: %v", err)
	}
	if again.BestTree != first.BestTree || !reflect.DeepEqual(again.ReplicateTrees, first.ReplicateTrees) {
		t.Error("resumed bootstrap differs from the run that wrote the manifest")
	}
}
