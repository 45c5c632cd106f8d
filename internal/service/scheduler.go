package service

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/mpinet"
)

// submit validates a spec, stores the job, and tries to place it.
func (s *Server) submit(spec JobSpec) (*job, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("server is shutting down")
	}
	j := &job{
		id:      fmt.Sprintf("job-%d", s.nextJob),
		spec:    spec,
		state:   JobQueued,
		created: time.Now(),
		workers: map[string]int{},
		notify:  make(chan struct{}),
	}
	s.nextJob++
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.queue = append(s.queue, j.id)
	s.metrics.jobsSubmitted.Inc()
	if spec.Campaign != "" {
		kind := "start"
		if spec.Bootstrap != nil {
			kind = "replicate"
		}
		s.metrics.campaignTasks.With(kind).Inc()
	}
	j.appendEvent(j.created, Event{Type: "queued", Message: fmt.Sprintf("requested %d rank(s)", spec.Ranks)})
	s.kickLocked()
	return j, nil
}

// idleWorkersLocked lists the idle workers in registration order, so
// placement is deterministic given the pool history.
func (s *Server) idleWorkersLocked() []*worker {
	var idle []*worker
	for _, w := range s.workers {
		if w.state == workerIdle {
			idle = append(idle, w)
		}
	}
	sort.Slice(idle, func(i, k int) bool { return idle[i].seq < idle[k].seq })
	return idle
}

// kickLocked is the scheduler: scan the FIFO queue and start every job
// the current idle strength can satisfy. The scan continues past jobs
// that do not fit (first-fit backfill), so a small job behind a large
// one is not starved by it — the trade-off is that the large job only
// starts once enough workers are idle simultaneously.
func (s *Server) kickLocked() {
	if s.closed {
		return
	}
	idle := s.idleWorkersLocked()
	keep := s.queue[:0]
	for _, id := range s.queue {
		j := s.jobs[id]
		if j == nil || j.state != JobQueued {
			continue // canceled while queued
		}
		if len(idle) < j.spec.Ranks {
			keep = append(keep, id)
			continue
		}
		s.startJobLocked(j, idle[:j.spec.Ranks])
		idle = idle[j.spec.Ranks:]
	}
	s.queue = append([]string(nil), keep...)
}

// startJobLocked places a queued job on the given idle workers and
// sends every rank its run order.
func (s *Server) startJobLocked(j *job, ws []*worker) {
	addr, err := mpinet.ReserveLoopbackAddr()
	if err != nil {
		// No port to rendezvous on; the job stays queued and the next
		// kick retries.
		s.logf("service: reserving rendezvous port for %s: %v", j.id, err)
		return
	}
	now := time.Now()
	j.state = JobRunning
	j.started = now
	j.addr = addr
	j.nonce = s.nonce
	s.metrics.queueWait.Observe(now.Sub(j.created).Seconds())
	// Recovery epochs derive their nonce from the base (+1, +2, …);
	// keep job nonces far apart so they can never collide.
	s.nonce += 1 << 16
	j.appendEvent(now, Event{Type: "started", WorldSize: j.spec.Ranks, Message: "rendezvous at " + addr})
	s.logf("service: job %s starting on %d worker(s) at %s", j.id, len(ws), addr)

	for rank, w := range ws {
		m := s.runOrderLocked(j, w, rank)
		if inj := j.spec.InjectFailure; inj != nil && inj.Rank == rank {
			m.DieAfter = inj.AfterIteration
		}
		w.sendAsync(m)
	}
}

// runOrderLocked assigns rank of running job j to worker w and returns
// the run order that tells w so: the one place a job's placement and
// the daemon's failure-detection tuning become a msgRun, for a start
// and for a migration alike.
func (s *Server) runOrderLocked(j *job, w *worker, rank int) wireMsg {
	w.state = workerBusy
	w.job = j.id
	w.rank = rank
	j.workers[w.id] = rank
	spec := j.spec
	return wireMsg{
		Type: msgRun, Job: j.id,
		Rank: rank, Size: spec.Ranks, Addr: j.addr, Nonce: j.nonce,
		MaxRecoveries:    spec.MaxRecoveries,
		HbIntervalMS:     int(s.opts.HeartbeatInterval.Milliseconds()),
		HbTimeoutMS:      int(s.opts.HeartbeatTimeout.Milliseconds()),
		RecoveryWindowMS: int(s.opts.RecoveryWindow.Milliseconds()),
		Spec:             &spec,
	}
}

// cancel moves a job to JobCanceled. Queued jobs simply leave the
// queue; running jobs have their workers told to exit (the search has
// no safe interruption point), and the spawn maintainer replaces the
// processes. Returns false if the job already reached a terminal
// state.
func (s *Server) cancel(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	now := time.Now()
	wasRunning := j.state == JobRunning
	j.state = JobCanceled
	j.finished = now
	j.canceling = true
	j.appendEvent(now, Event{Type: "canceled"})
	s.finishMetricsLocked(j, JobCanceled, now)
	s.logf("service: job %s canceled", j.id)
	if wasRunning {
		for id := range j.workers {
			if w := s.workers[id]; w != nil {
				w.sendAsync(wireMsg{Type: msgCancel, Job: j.id})
			}
		}
	}
	return true
}
