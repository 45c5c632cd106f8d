package phyrun

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// manifestVersion guards the on-disk format. Version 2 pins the
// inputs digest strictly; a version-1 manifest, whose digest covered
// the data alone, is refused.
const manifestVersion = 2

// TaskRecord is one task's persisted outcome.
type TaskRecord struct {
	ID    string   `json:"id"`
	Kind  TaskKind `json:"kind"`
	Index int      `json:"index"`
	// State is "done" or "failed"; in-flight tasks are simply absent.
	State string `json:"state"`
	// Finished is when the record was written (informational only — it
	// never feeds back into scheduling or results).
	Finished time.Time   `json:"finished"`
	Result   *TaskResult `json:"result,omitempty"`
	Error    string      `json:"error,omitempty"`
}

// Manifest is a campaign's durable state: the plan and the inputs,
// each pinned by a digest, and the per-task outcomes recorded as they
// complete. A campaign killed at any point resumes from its manifest by
// re-running only the missing tasks — per-task determinism guarantees
// the resumed campaign is bit-identical to an uninterrupted one.
type Manifest struct {
	Version    int    `json:"version"`
	PlanDigest string `json:"plan_digest"`
	// InputsDigest pins the data and search configuration
	// (Config.InputsDigest).
	InputsDigest string                 `json:"inputs_digest"`
	Plan         Plan                   `json:"plan"`
	Tasks        map[string]*TaskRecord `json:"tasks"`
	// ConvergedAt is the bootstop verdict once known: the replicate
	// count of the converged prefix (0 = not yet / not applicable).
	ConvergedAt int `json:"converged_at,omitempty"`
}

// newManifest returns an empty manifest for the plan.
func newManifest(plan Plan, inputsDigest string) *Manifest {
	return &Manifest{
		Version:      manifestVersion,
		PlanDigest:   plan.Digest(),
		InputsDigest: inputsDigest,
		Plan:         plan,
		Tasks:        map[string]*TaskRecord{},
	}
}

// LoadManifest reads a manifest from disk. A missing file is not an
// error: it returns (nil, nil) so callers start fresh.
func LoadManifest(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("phyrun: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("phyrun: parsing manifest %s: %w", path, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("phyrun: manifest %s has version %d, want %d", path, m.Version, manifestVersion)
	}
	if m.Tasks == nil {
		m.Tasks = map[string]*TaskRecord{}
	}
	return &m, nil
}

// verify checks a loaded manifest belongs to this campaign.
func (m *Manifest) verify(plan Plan, inputsDigest string) error {
	if got, want := m.PlanDigest, plan.Digest(); got != want {
		return fmt.Errorf("phyrun: manifest plan digest %.12s… does not match the requested plan %.12s… — refusing to mix campaigns", got, want)
	}
	if m.InputsDigest != inputsDigest {
		return fmt.Errorf("phyrun: manifest inputs digest %q does not match this run's inputs digest %q — refusing to mix campaigns", m.InputsDigest, inputsDigest)
	}
	return nil
}

// save writes the manifest atomically (temp file + rename in the target
// directory), so a crash mid-write never corrupts the resume state.
func (m *Manifest) save(path string) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("phyrun: encoding manifest: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".phyrun-manifest-*")
	if err != nil {
		return fmt.Errorf("phyrun: writing manifest: %w", err)
	}
	_, werr := tmp.Write(append(raw, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("phyrun: writing manifest: %w", werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("phyrun: writing manifest: %w", err)
	}
	return nil
}

// doneTasks lists the IDs of completed tasks, sorted, for logging. A
// null record (an edited file) is a missing one.
func (m *Manifest) doneTasks() []string {
	var ids []string
	for id, rec := range m.Tasks {
		if rec != nil && rec.State == "done" {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}
