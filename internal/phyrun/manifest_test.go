package phyrun

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fuzzPlan is the small bootstopped campaign FuzzLoadManifest restores
// manifests into: its checkpoints fall at two and four replicates.
var fuzzPlan = Plan{Seed: 3, RandomStarts: 1, Replicates: 4,
	Bootstop: &BootstopConfig{CheckEvery: 2, Permutations: 4}}

// FuzzLoadManifest: a resumed campaign reads a manifest that may be
// truncated or edited. Any bytes must give an error, or a manifest that
// save writes and LoadManifest reads back to the same manifest; and
// restoring that manifest into fuzzPlan must give an error or a restored
// state, never a panic.
func FuzzLoadManifest(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed.json")
	if _, err := Run(context.Background(), Config{Plan: fuzzPlan, Runner: &fakeRunner{}, ManifestPath: seed}); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(bytes.ReplaceAll(raw, []byte(`"done"`), []byte(`"failed"`)))
	f.Add(bytes.Replace(raw, []byte("(A:1,"), []byte("(A:1;"), 1))
	f.Add([]byte(`{"version":1,"tasks":{"s0":null,"r0":null}}`))
	f.Add([]byte(`{"version":1,"tasks":{"r0":{"state":"done","result":{"tree":"((A:1,B:1):1,C:1,D:1);"}},` +
		`"r1":{"state":"done","result":{"tree":"((A:1,B:1):1,C:1,X:1);"}}}}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadManifest(in)
		if err != nil {
			return
		}
		out := filepath.Join(dir, "out.json")
		if err := m.save(out); err != nil {
			t.Fatalf("a loaded manifest does not save: %v", err)
		}
		back, err := LoadManifest(out)
		if err != nil {
			t.Fatalf("a saved manifest does not load: %v", err)
		}
		// Equal as manifests: time.Time keeps its zone as a pointer, so
		// compare encodings, not structs.
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("manifest changed through save and load:\n%s\n%s", want, got)
		}

		m.doneTasks()
		r := newRun(Config{Plan: fuzzPlan}, m)
		if err := r.prefill(); err != nil {
			return
		}
		// A restored state: every restored result is its own task's
		// record, and the split table holds the contiguous prefix of
		// restored replicates, which any verdict lies within.
		tasks := fuzzPlan.Tasks()
		for i, res := range append(r.startRes, r.repRes...) {
			if id := tasks[i].ID(); res != nil && m.Tasks[id].Result != res {
				t.Fatalf("task %s restored from another record", id)
			}
		}
		prefix := 0
		for prefix < len(r.repRes) && r.repRes[prefix] != nil {
			prefix++
		}
		if r.counter.Trees() != prefix || r.convergedAt > prefix {
			t.Fatalf("table holds %d replicates, verdict %d, restored prefix %d", r.counter.Trees(), r.convergedAt, prefix)
		}
	})
}
