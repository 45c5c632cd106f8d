package phyrun

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/bootstrap"
	"repro/internal/tree"
)

// Config describes one campaign execution.
type Config struct {
	// Plan is the campaign's deterministic description.
	Plan Plan
	// Runner executes tasks (local pool or service backend).
	Runner Runner
	// Workers bounds how many tasks run concurrently (default 1). The
	// worker count affects wall-clock time only, never results.
	Workers int
	// ManifestPath, when set, makes the campaign resumable: task
	// outcomes are journaled there and a re-run skips finished tasks.
	ManifestPath string
	// InputsDigest pins everything besides the plan that moves a task's
	// bits — the data and the search configuration, examl.CampaignDigest
	// — in the manifest; a resume with another digest is refused.
	InputsDigest string
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives task gauges and counters.
	Metrics *Metrics
	// OnTaskDone observes every task completion after its manifest
	// record is durable — the kill-and-resume smoke test hooks it.
	OnTaskDone func(task Task, rec *TaskRecord)
}

// Result is a finished campaign's outcome. Its JSON encoding
// (PREFIX.campaign.json) is a pure function of plan and inputs: equal
// campaigns produce byte-identical encodings on any backend, at any
// concurrency, across kill and resume. ReplicatesRun and each start's
// WallSeconds vary from run to run and stay out of it.
type Result struct {
	// BestTree is the highest-scoring ML search's tree; ties break to
	// the lowest start index. BestStart identifies it.
	BestTree          string  `json:"best_tree"`
	BestLogLikelihood float64 `json:"best_log_likelihood"`
	BestLnLBits       string  `json:"best_lnl_bits"`
	BestStart         int     `json:"best_start"`
	// Starts holds every ML search result, by start index.
	Starts []*TaskResult `json:"starts"`

	// ReplicateTrees are the bootstrap replicate trees actually used
	// (the converged prefix under bootstopping), in replicate order.
	ReplicateTrees []string `json:"replicate_trees,omitempty"`
	// ReplicatesRun counts replicate tasks executed, including
	// speculative ones beyond the convergence point.
	ReplicatesRun int `json:"-"`
	// Converged reports whether the bootstop criterion fired;
	// ConvergedAt is the replicate count it fired at.
	Converged   bool `json:"converged,omitempty"`
	ConvergedAt int  `json:"converged_at,omitempty"`

	// Supports maps replicate frequencies onto BestTree's bipartitions
	// (tree.Bipartitions order); AnnotatedTree is BestTree with integer
	// percent support labels.
	Supports      []float64 `json:"supports,omitempty"`
	AnnotatedTree string    `json:"annotated_tree,omitempty"`
	// ConsensusTree is the extended majority-rule consensus of the used
	// replicates, with its aligned support vector.
	ConsensusTree     string    `json:"consensus_tree,omitempty"`
	ConsensusSupports []float64 `json:"consensus_supports,omitempty"`
}

// run is the mutable scheduling state, guarded by mu.
type run struct {
	mu   sync.Mutex
	cond *sync.Cond
	cfg  Config
	bs   BootstopConfig
	man  *Manifest

	starts   []Task
	reps     []Task
	startRes []*TaskResult
	repRes   []*TaskResult

	nextStart int // claim pointer over starts
	nextRep   int // claim pointer over replicates
	// nextCk is the next unevaluated bootstop checkpoint boundary;
	// convergedAt is the verdict (0 = none yet).
	nextCk      int
	convergedAt int
	// counter is the split table of the contiguous index prefix of
	// finished replicates.
	counter *bootstrap.SplitCounter

	inFlight int
	err      error
}

// Run executes the campaign and assembles its result. The first task
// failure aborts the run (in-flight tasks drain first); everything
// finished up to that point is durable in the manifest.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Runner == nil {
		return nil, fmt.Errorf("no runner configured")
	}
	if err := cfg.Plan.Validate(); err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	plan := cfg.Plan

	var man *Manifest
	if cfg.ManifestPath != "" {
		m, err := LoadManifest(cfg.ManifestPath)
		if err != nil {
			return nil, err
		}
		if m == nil {
			man = newManifest(plan, cfg.InputsDigest)
			if err := man.save(cfg.ManifestPath); err != nil {
				return nil, err
			}
		} else {
			if err := m.verify(plan, cfg.InputsDigest); err != nil {
				return nil, err
			}
			man = m
			if done := m.doneTasks(); len(done) > 0 {
				logf("resuming campaign: %d of %d task(s) already done", len(done), plan.Starts()+plan.Replicates)
			}
		}
	}

	r := newRun(cfg, man)

	// Prefill finished tasks from the manifest and re-evaluate the
	// bootstop checkpoints they cover, so a resumed campaign claims
	// only the missing work.
	if man != nil {
		if err := r.prefill(); err != nil {
			return nil, err
		}
	}
	pending := 0
	for _, res := range r.startRes {
		if res == nil {
			pending++
		}
	}
	for _, res := range r.repRes {
		if res == nil {
			pending++
		}
	}
	cfg.Metrics.setPending(pending)

	logf("campaign seed %d: %d start(s) (%d parsimony), %d replicate(s), %d worker(s)",
		plan.Seed, plan.Starts(), plan.ParsimonyStarts, plan.Replicates, workers)

	var wg sync.WaitGroup
	// Wake blocked claimers when the context dies mid-campaign.
	stopWatch := context.AfterFunc(ctx, func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer stopWatch()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r.mu.Lock()
				var t Task
				claimed := false
				for {
					if r.err != nil || ctx.Err() != nil {
						break
					}
					var ok bool
					if t, ok = r.claimLocked(); ok {
						claimed = true
						r.inFlight++
						break
					}
					if r.inFlight == 0 {
						break // nothing running, nothing claimable: done
					}
					r.cond.Wait()
				}
				r.mu.Unlock()
				if !claimed {
					return
				}
				r.execute(ctx, t)
			}
		}()
	}
	wg.Wait()

	if r.err != nil {
		return nil, r.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.assemble(logf)
}

// newRun returns the scheduling state of a campaign with nothing done.
func newRun(cfg Config, man *Manifest) *run {
	plan := cfg.Plan
	r := &run{
		cfg:      cfg,
		man:      man,
		startRes: make([]*TaskResult, plan.Starts()),
		repRes:   make([]*TaskResult, plan.Replicates),
		counter:  bootstrap.NewSplitCounter(),
	}
	r.cond = sync.NewCond(&r.mu)
	for _, t := range plan.Tasks() {
		if t.Kind == TaskStart {
			r.starts = append(r.starts, t)
		} else {
			r.reps = append(r.reps, t)
		}
	}
	if plan.Bootstop != nil {
		r.bs = plan.Bootstop.withDefaults()
		r.nextCk = r.bs.CheckEvery
	}
	return r
}

// claimLocked hands out the next eligible task: starts in index order,
// then replicates inside the current dispatch window.
func (r *run) claimLocked() (Task, bool) {
	for r.nextStart < len(r.starts) && r.startRes[r.nextStart] != nil {
		r.nextStart++
	}
	if r.nextStart < len(r.starts) {
		t := r.starts[r.nextStart]
		r.nextStart++
		return t, true
	}
	for r.nextRep < len(r.reps) && r.repRes[r.nextRep] != nil {
		r.nextRep++
	}
	if r.nextRep < r.windowLocked() {
		t := r.reps[r.nextRep]
		r.nextRep++
		return t, true
	}
	return Task{}, false
}

// windowLocked bounds replicate dispatch. Without bootstopping the
// whole budget is eligible. With it, dispatch runs at most one
// CheckEvery batch beyond the next unevaluated checkpoint: enough
// speculative work to hide the checkpoint barrier, little enough that
// a converged campaign wastes at most one batch.
func (r *run) windowLocked() int {
	b := len(r.reps)
	if r.cfg.Plan.Bootstop == nil {
		return b
	}
	if r.convergedAt > 0 {
		return r.convergedAt // no new work past the verdict
	}
	w := r.nextCk + r.bs.CheckEvery
	if w > b {
		w = b
	}
	return w
}

// feedLocked parses the finished replicates that extend the contiguous
// index prefix into the split table and evaluates every checkpoint the
// prefix now covers. Checkpoints consume replicates strictly in index
// order, so the verdict is identical at any concurrency.
func (r *run) feedLocked() error {
	for i := r.counter.Trees(); i < len(r.repRes) && r.repRes[i] != nil; i++ {
		t, err := tree.ParseNewick(r.repRes[i].Tree, 1)
		if err != nil {
			return fmt.Errorf("task %s holds an unparsable tree: %w", r.reps[i].ID(), err)
		}
		if _, err := r.counter.Add(t); err != nil {
			return err
		}
	}
	fed := r.counter.Trees()
	if r.cfg.Plan.Bootstop == nil || r.convergedAt > 0 {
		return nil
	}
	for r.nextCk <= len(r.reps) && fed >= r.nextCk {
		if r.bs.converged(r.counter, r.nextCk, r.cfg.Plan.Seed) {
			r.convergedAt = r.nextCk
			r.cfg.Metrics.bootstopConverged(r.nextCk)
			break
		}
		r.nextCk += r.bs.CheckEvery
	}
	return nil
}

// prefill restores finished tasks from the manifest.
func (r *run) prefill() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	restore := func(tasks []Task, results []*TaskResult) {
		for _, t := range tasks {
			// A missing or failed task is left to run again.
			if rec := r.man.Tasks[t.ID()]; rec != nil && rec.State == "done" && rec.Result != nil {
				results[t.Index] = rec.Result
			}
		}
	}
	restore(r.starts, r.startRes)
	restore(r.reps, r.repRes)
	return r.feedLocked()
}

// execute runs one claimed task and records its outcome.
func (r *run) execute(ctx context.Context, t Task) {
	r.cfg.Metrics.taskStarted()
	res, err := r.cfg.Runner.Run(ctx, t)

	r.mu.Lock()
	r.inFlight--
	rec := &TaskRecord{ID: t.ID(), Kind: t.Kind, Index: t.Index, Finished: time.Now()}
	if err != nil {
		rec.State = "failed"
		rec.Error = err.Error()
		if r.err == nil && ctx.Err() == nil {
			r.err = fmt.Errorf("task %s: %w", t.ID(), err)
		}
	} else {
		rec.State = "done"
		rec.Result = res
		if t.Kind == TaskStart {
			r.startRes[t.Index] = res
		} else {
			r.repRes[t.Index] = res
			if ferr := r.feedLocked(); ferr != nil && r.err == nil {
				r.err = ferr
			}
		}
	}
	if r.man != nil {
		r.man.Tasks[rec.ID] = rec
		r.man.ConvergedAt = r.convergedAt
		if serr := r.man.save(r.cfg.ManifestPath); serr != nil && r.err == nil {
			r.err = serr
		}
	}
	r.cfg.Metrics.taskFinished(t.Kind, err == nil)
	onDone := r.cfg.OnTaskDone
	r.cond.Broadcast()
	r.mu.Unlock()
	// The hook fires after the manifest record is durable, so a process
	// killed inside it resumes without repeating this task.
	if onDone != nil {
		onDone(t, rec)
	}
}

// assemble builds the Result from the completed task set.
func (r *run) assemble(logf func(string, ...any)) (*Result, error) {
	best := -1
	for i, res := range r.startRes {
		if res == nil {
			return nil, fmt.Errorf("start %d never completed", i)
		}
		if best < 0 || res.LogLikelihood > r.startRes[best].LogLikelihood {
			best = i
		}
	}
	out := &Result{
		BestTree:          r.startRes[best].Tree,
		BestLogLikelihood: r.startRes[best].LogLikelihood,
		BestLnLBits:       r.startRes[best].LnLBits,
		BestStart:         best,
		Starts:            r.startRes,
	}
	b := len(r.reps)
	if b == 0 {
		return out, nil
	}

	nUsed := b
	if r.convergedAt > 0 {
		nUsed = r.convergedAt
		out.Converged = true
		out.ConvergedAt = r.convergedAt
		logf("bootstop converged at %d of %d replicate(s)", nUsed, b)
	}
	for i := 0; i < nUsed; i++ {
		if r.repRes[i] == nil {
			return nil, fmt.Errorf("replicate %d never completed", i)
		}
		out.ReplicateTrees = append(out.ReplicateTrees, r.repRes[i].Tree)
	}
	for _, res := range r.repRes {
		if res != nil {
			out.ReplicatesRun++
		}
	}

	ref, err := tree.ParseNewick(out.BestTree, 1)
	if err != nil {
		return nil, fmt.Errorf("best tree unparsable: %w", err)
	}
	supports, err := r.counter.Support(ref, nUsed)
	if err != nil {
		return nil, err
	}
	annotated, err := bootstrap.AnnotatedNewick(ref, supports)
	if err != nil {
		return nil, err
	}
	cons, consSup, err := r.counter.Consensus(nUsed, 0.5)
	if err != nil {
		return nil, err
	}
	out.Supports = supports
	out.AnnotatedTree = annotated
	out.ConsensusTree = cons.Newick()
	out.ConsensusSupports = consSup
	return out, nil
}
