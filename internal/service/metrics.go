package service

import (
	"time"

	"repro/internal/metrics"
)

// serverMetrics is one Server's metrics surface. Each Server owns a
// private registry (rather than the process Default) so two servers in
// one process — the daemon plus a test harness, or several tests —
// never collide on gauge callbacks. cmd/examld serves this registry
// alone at /metrics: the process-wide one (mpinet, telemetry) moves only
// in the worker processes, where the inference runs.
type serverMetrics struct {
	reg *metrics.Registry

	jobsSubmitted *metrics.Counter
	jobsFinished  *metrics.CounterVec // label: terminal state
	migrations    *metrics.Counter
	shrinks       *metrics.Counter
	degraded      *metrics.Counter

	workersRegistered *metrics.Counter
	workersLost       *metrics.Counter
	profilesCaptured  *metrics.Counter

	// campaignTasks counts jobs attributed to a phyrun campaign (the
	// spec carried a campaign label), by task kind.
	campaignTasks *metrics.CounterVec // label: kind (start | replicate)

	queueWait   *metrics.Histogram
	jobDuration *metrics.Histogram
}

// newServerMetrics builds the registry for one server; the gauge
// callbacks read live pool/queue state under the server mutex.
func newServerMetrics(s *Server) *serverMetrics {
	r := metrics.NewRegistry()
	m := &serverMetrics{
		reg: r,
		jobsSubmitted: r.Counter("examld_jobs_submitted_total",
			"Jobs accepted by the scheduler."),
		jobsFinished: r.CounterVec("examld_jobs_finished_total",
			"Jobs reaching a terminal state, by state.", "state"),
		migrations: r.Counter("examld_migrations_total",
			"Dead ranks migrated onto spare workers."),
		shrinks: r.Counter("examld_shrinks_total",
			"Dead ranks the pool could not cover (job continued on a shrunken world)."),
		degraded: r.Counter("examld_degraded_total",
			"Degraded completions: recovery budget exhausted or no spare worker."),
		workersRegistered: r.Counter("examld_workers_registered_total",
			"Worker registrations accepted on the pool listener."),
		workersLost: r.Counter("examld_workers_lost_total",
			"Worker connections dropped."),
		profilesCaptured: r.Counter("examld_worker_profiles_total",
			"Worker-process pprof profiles captured over the control protocol."),
		campaignTasks: r.CounterVec("examld_campaign_tasks_total",
			"Jobs submitted on behalf of a phyrun campaign, by task kind.", "kind"),
		queueWait: r.Histogram("examld_job_queue_wait_seconds",
			"Time from submission to placement on workers.",
			metrics.DefBuckets),
		jobDuration: r.Histogram("examld_job_duration_seconds",
			"Time from placement to terminal state.",
			metrics.ExpBuckets(0.05, 2, 14)), // 50ms .. ~7m
	}

	r.GaugeFunc("examld_queue_depth", "Jobs waiting for workers.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for _, id := range s.queue {
			if j := s.jobs[id]; j != nil && j.state == JobQueued {
				n++
			}
		}
		return float64(n)
	})
	r.GaugeFunc("examld_jobs_running", "Jobs currently running.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for _, j := range s.jobs {
			if j.state == JobRunning {
				n++
			}
		}
		return float64(n)
	})
	poolGauge := func(st workerState) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for _, w := range s.workers {
				if w.state == st {
					n++
				}
			}
			return float64(n)
		}
	}
	r.GaugeFunc("examld_workers_idle", "Warm workers awaiting a rank.", poolGauge(workerIdle))
	r.GaugeFunc("examld_workers_busy", "Workers currently hosting a rank.", poolGauge(workerBusy))
	r.GaugeFunc("examld_workers_connected", "Workers registered on the pool listener.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.workers))
	})
	r.GaugeFunc("examld_workers_spawned", "Worker processes this daemon spawned and maintains.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.spawned))
	})
	r.GaugeFunc("examld_events_dropped_total", "Job events shed by the bounded per-job rings.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		var n uint64
		for _, j := range s.jobs {
			n += j.dropped
		}
		return float64(n)
	})
	return m
}

// Metrics returns the server's private metrics registry, for mounting
// at /metrics.
func (s *Server) Metrics() *metrics.Registry { return s.metrics.reg }

// finishLocked records a job's terminal state on the metrics surface.
func (s *Server) finishMetricsLocked(j *job, state JobState, now time.Time) {
	s.metrics.jobsFinished.With(string(state)).Inc()
	if !j.started.IsZero() {
		s.metrics.jobDuration.Observe(now.Sub(j.started).Seconds())
	}
}
