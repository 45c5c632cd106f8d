// Package client holds the inference service's public API surface —
// the job specification, result, and event types that travel over the
// HTTP/JSON API — and a small HTTP client speaking it. The daemon side
// (internal/service) aliases these types, so a JobSpec accepted by the
// client is by construction the JobSpec the daemon validates.
//
// The package deliberately depends on nothing but the standard library:
// campaign orchestration (internal/phyrun) and command-line tools import
// it without dragging in the daemon or the inference engine.
package client

import (
	"encoding/json"
	"fmt"
	"strings"
)

// JobState is the lifecycle state of a submitted job.
type JobState string

// Job lifecycle states. Queued jobs wait for enough idle workers;
// running jobs occupy spec.Ranks workers; the three terminal states
// are done, failed, and canceled.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// SimulateSpec asks the workers to generate the alignment with the
// paper's partitioned-genes recipe instead of shipping sequence data.
// Every rank regenerates the identical dataset from the seed.
type SimulateSpec struct {
	Taxa       int   `json:"taxa"`
	Partitions int   `json:"partitions"`
	GeneLength int   `json:"gene_length"`
	Seed       int64 `json:"seed"`
}

// InjectSpec deliberately kills one rank of the job after it reports
// the given iteration — a built-in failure drill exercising the
// checkpoint-migration path (TestServiceMigratesInjectedDeath).
type InjectSpec struct {
	// Rank is the initial rank whose worker dies.
	Rank int `json:"rank"`
	// AfterIteration is the 1-based iteration after which it exits.
	AfterIteration int `json:"after_iteration"`
}

// BootstrapSpec turns the job into one bootstrap replicate: every rank
// resamples the base dataset (site resampling with replacement, per
// partition) from the given seed before inference, exactly as
// examl.ResampleDataset does in-process. Because resampling is a pure
// function of (dataset, seed), a replicate run through the service is
// bit-identical to the same replicate run locally — the property the
// phyrun campaign orchestrator's backend matrix relies on.
type BootstrapSpec struct {
	// Seed drives the site resampling.
	Seed int64 `json:"seed"`
}

// JobSpec is the submit-time description of an inference job. Exactly
// one of Phylip or Simulate must be set. The service always runs the
// decentralized scheme: it is the only one whose ranks are symmetric
// enough to migrate (docs/SERVICE.md).
type JobSpec struct {
	// Phylip is an inline relaxed-PHYLIP alignment; Partitions is the
	// optional RAxML-style partition scheme for it.
	Phylip     string `json:"phylip,omitempty"`
	Partitions string `json:"partitions,omitempty"`
	// Simulate generates the dataset on the workers instead.
	Simulate *SimulateSpec `json:"simulate,omitempty"`
	// Bootstrap resamples the dataset into one bootstrap replicate
	// before inference (composes with Phylip or Simulate).
	Bootstrap *BootstrapSpec `json:"bootstrap,omitempty"`

	// Ranks is the number of worker processes requested (default 1).
	Ranks int `json:"ranks,omitempty"`
	// Threads is the per-rank thread count (default 1).
	Threads int `json:"threads,omitempty"`
	// Seed drives the random starting tree.
	Seed int64 `json:"seed,omitempty"`
	// ParsimonyStart builds the starting tree by randomized
	// stepwise-addition parsimony instead of a random topology.
	ParsimonyStart bool `json:"parsimony_start,omitempty"`
	// MaxIterations, Epsilon, and SPRRadius tune the search; zero
	// values use the library defaults (50 / 0.1 / 5).
	MaxIterations int     `json:"max_iterations,omitempty"`
	Epsilon       float64 `json:"epsilon,omitempty"`
	SPRRadius     int     `json:"spr_radius,omitempty"`

	// Campaign is an optional free-form label attributing the job to a
	// phyrun campaign; the daemon counts campaign tasks on /metrics but
	// attaches no other semantics.
	Campaign string `json:"campaign,omitempty"`

	// MaxRecoveries bounds how many recovery epochs the job may consume
	// (deaths survived); default 2.
	MaxRecoveries int `json:"max_recoveries,omitempty"`
	// Trace streams the job's JSONL telemetry events (kernel and
	// collective spans) into the job event log. Off by default — the
	// span stream is high-volume.
	Trace bool `json:"trace,omitempty"`
	// InjectFailure is the failure drill; omit it in normal use.
	InjectFailure *InjectSpec `json:"inject_failure,omitempty"`
}

// MaxRanksPerJob bounds a single job's worker demand so one submission
// cannot wedge the queue behind an unsatisfiable request.
const MaxRanksPerJob = 64

// MaxThreadsPerRank bounds a job's threads: a worker starts one
// goroutine per thread for the whole run.
const MaxThreadsPerRank = 256

// MaxSimulateCells bounds a simulated alignment's taxa × partitions ×
// gene_length, the cells every worker generates before the run: no more
// than the 64 MiB a submitted alignment may carry.
const MaxSimulateCells = 64 << 20

// maxCampaignLabel bounds the free-form campaign label.
const maxCampaignLabel = 200

// Normalize fills defaults and validates the spec — the exact check the
// daemon applies at submit time, so client-side validation and
// server-side rejection can never disagree.
func (s *JobSpec) Normalize() error {
	if s.Ranks == 0 {
		s.Ranks = 1
	}
	if s.Ranks < 1 || s.Ranks > MaxRanksPerJob {
		return fmt.Errorf("ranks must be in [1,%d], got %d", MaxRanksPerJob, s.Ranks)
	}
	hasPhy := strings.TrimSpace(s.Phylip) != ""
	if hasPhy == (s.Simulate != nil) {
		return fmt.Errorf("exactly one of phylip or simulate must be set")
	}
	if sim := s.Simulate; sim != nil {
		if sim.Taxa < 4 || sim.Partitions < 1 || sim.GeneLength < 1 {
			return fmt.Errorf("simulate needs taxa ≥ 4, partitions ≥ 1, gene_length ≥ 1")
		}
		// Dividing, not multiplying: the product may overflow.
		if sim.Taxa > MaxSimulateCells/sim.Partitions/sim.GeneLength {
			return fmt.Errorf("simulate of %d taxa × %d partitions × %d sites exceeds %d cells", sim.Taxa, sim.Partitions, sim.GeneLength, MaxSimulateCells)
		}
	}
	if s.MaxIterations < 0 || s.Epsilon < 0 || s.SPRRadius < 0 || s.Threads < 0 {
		return fmt.Errorf("max_iterations, epsilon, spr_radius, and threads must be non-negative")
	}
	if s.Threads > MaxThreadsPerRank {
		return fmt.Errorf("threads must be at most %d, got %d", MaxThreadsPerRank, s.Threads)
	}
	if len(s.Campaign) > maxCampaignLabel {
		return fmt.Errorf("campaign label longer than %d bytes", maxCampaignLabel)
	}
	if s.MaxRecoveries == 0 {
		s.MaxRecoveries = 2
	}
	if s.MaxRecoveries < 0 {
		return fmt.Errorf("max_recoveries must be non-negative")
	}
	if inj := s.InjectFailure; inj != nil {
		if inj.Rank < 0 || inj.Rank >= s.Ranks || inj.AfterIteration < 1 {
			return fmt.Errorf("inject_failure needs rank in [0,%d) and after_iteration ≥ 1", s.Ranks)
		}
	}
	return nil
}

// JobResult is the final outcome of a job, as reported by its ranks
// (bit-identical on every rank under the decentralized scheme).
type JobResult struct {
	// Tree is the final topology in Newick format; branch lengths use
	// the shortest round-tripping decimal form, so string equality is
	// bit equality.
	Tree string `json:"tree"`
	// LogLikelihood is the final score; LnLBits is its exact IEEE-754
	// bit pattern in hex, immune to decimal re-encoding.
	LogLikelihood float64 `json:"log_likelihood"`
	LnLBits       string  `json:"lnl_bits"`
	// Iterations is the number of outer search iterations executed.
	Iterations int `json:"iterations"`
	// WallSeconds is the reporting rank's wall-clock time.
	WallSeconds float64 `json:"wall_seconds"`
	// Ranks is the world size that finished the run; Epochs counts the
	// worlds (1 = no failure); Recovered and ResumedIteration describe
	// the last checkpoint restore, if any.
	Ranks            int  `json:"ranks"`
	Epochs           int  `json:"epochs"`
	Recovered        bool `json:"recovered"`
	ResumedIteration int  `json:"resumed_iteration,omitempty"`
}

// Event is one entry of a job's progress log, exposed by the events
// and SSE endpoints. Seq increases by 1 per event; a gap against the
// reported dropped count means the bounded ring overflowed.
type Event struct {
	Seq  uint64 `json:"seq"`
	Time string `json:"time"`
	// Type is one of: queued, started, progress, recovered, migrated,
	// degraded, trace, done, failed, canceled.
	Type      string  `json:"type"`
	Iteration int     `json:"iteration,omitempty"`
	LnL       float64 `json:"lnl,omitempty"`
	Rank      int     `json:"rank,omitempty"`
	WorldSize int     `json:"world_size,omitempty"`
	Epoch     int     `json:"epoch,omitempty"`
	Worker    string  `json:"worker,omitempty"`
	Message   string  `json:"message,omitempty"`
	// Trace holds the forwarded telemetry JSONL event for type=trace.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// JobView is the status representation of a job on the wire.
type JobView struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	Ranks    int      `json:"ranks"`
	Campaign string   `json:"campaign,omitempty"`
	Created  string   `json:"created"`
	Started  string   `json:"started,omitempty"`
	Finished string   `json:"finished,omitempty"`

	Iteration int     `json:"iteration,omitempty"`
	LnL       float64 `json:"lnl,omitempty"`

	Epochs        int    `json:"epochs"`
	Migrations    int    `json:"migrations,omitempty"`
	Shrinks       int    `json:"shrinks,omitempty"`
	Error         string `json:"error,omitempty"`
	Events        uint64 `json:"events"`
	DroppedEvents uint64 `json:"dropped_events,omitempty"`
}

// EventsPage is the long-poll events endpoint's response.
type EventsPage struct {
	Events  []Event  `json:"events"`
	Next    uint64   `json:"next"`
	Dropped uint64   `json:"dropped"`
	State   JobState `json:"state"`
}
