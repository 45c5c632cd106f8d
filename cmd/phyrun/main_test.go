package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallCampaign is a campaign of two starts and four replicates on a
// simulated 8-taxon alignment, one search iteration per task.
func smallCampaign(dir, name string) runArgs {
	return runArgs{
		simTaxa: 8, simParts: 1, simLen: 60, simSeed: 42,
		seed: 12345, starts: 2, boots: 4,
		backend: "local", workers: 1, ranks: 1, threads: 1, iters: 1,
		manifestPath: filepath.Join(dir, "m.json"), name: filepath.Join(dir, name),
	}
}

// TestResumeRefusesOtherInputs: a campaign manifest pins the inputs
// digest. A resume that changes -iter or -np is refused and leaves the
// manifest as it was; one that changes only -workers and -T re-runs the
// missing tasks and writes every output byte-identical to an
// uninterrupted run.
func TestResumeRefusesOtherInputs(t *testing.T) {
	dir := t.TempDir()
	whole := smallCampaign(dir, "whole")
	whole.manifestPath = ""
	if err := run(whole); err != nil {
		t.Fatal(err)
	}

	a := smallCampaign(dir, "resumed")
	if err := run(a); err != nil {
		t.Fatal(err)
	}
	// Forget three task records, as a campaign killed early leaves them.
	raw, err := os.ReadFile(a.manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var tasks map[string]json.RawMessage
	if err := json.Unmarshal(m["tasks"], &tasks); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"s1", "r2", "r3"} {
		delete(tasks, id)
	}
	if m["tasks"], err = json.Marshal(tasks); err != nil {
		t.Fatal(err)
	}
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(a.manifestPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	for flag, edit := range map[string]func(*runArgs){
		"-iter": func(a *runArgs) { a.iters = 3 },
		"-np":   func(a *runArgs) { a.ranks = 2 },
	} {
		other := a
		edit(&other)
		if err := run(other); err == nil || !strings.Contains(err.Error(), "inputs digest") {
			t.Errorf("resume with another %s: got %v, want a refusal naming the inputs digest", flag, err)
		}
		if after, err := os.ReadFile(a.manifestPath); err != nil || !bytes.Equal(after, raw) {
			t.Fatalf("a refused resume (%s) rewrote the manifest (%v)", flag, err)
		}
	}

	a.workers, a.threads = 2, 2
	if err := run(a); err != nil {
		t.Fatalf("resume with other -workers and -T: %v", err)
	}
	for _, suffix := range []string{".bestTree.nwk", ".support.nwk", ".consensus.nwk", ".bootstraps.nwk", ".campaign.json"} {
		want, err := os.ReadFile(whole.name + suffix)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(a.name + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s of the resumed campaign differs from the uninterrupted one", suffix)
		}
	}
}
