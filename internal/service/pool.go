package service

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"
)

type workerState int

const (
	workerIdle workerState = iota
	workerBusy
	workerDead
)

func (ws workerState) String() string {
	switch ws {
	case workerIdle:
		return "idle"
	case workerBusy:
		return "busy"
	}
	return "dead"
}

// worker is the daemon-side handle of one registered worker process.
// state/job/rank are guarded by the server mutex; sends serialize on
// their own mutex so the scheduler never writes to a socket while
// holding the server lock.
type worker struct {
	id     string
	seq    int
	pid    int
	conn   net.Conn
	enc    *json.Encoder
	sendMu sync.Mutex

	state workerState
	job   string
	rank  int
}

func (w *worker) send(m wireMsg) error {
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	return w.enc.Encode(&m)
}

// sendAsync writes off the calling goroutine; a failed send surfaces
// as the connection dropping, which the read loop already handles.
func (w *worker) sendAsync(m wireMsg) {
	go func() {
		if err := w.send(m); err != nil {
			w.conn.Close()
		}
	}()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(c)
		}()
	}
}

// handleConn registers one worker connection and pumps its messages.
func (s *Server) handleConn(c net.Conn) {
	dec := json.NewDecoder(c)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var h wireMsg
	if err := dec.Decode(&h); err != nil || h.Type != msgHello {
		c.Close()
		return
	}
	c.SetReadDeadline(time.Time{})

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.Close()
		return
	}
	w := &worker{
		id:    fmt.Sprintf("w%d", s.nextWorker),
		seq:   s.nextWorker,
		pid:   h.PID,
		conn:  c,
		enc:   json.NewEncoder(c),
		state: workerIdle,
	}
	s.nextWorker++
	s.workers[w.id] = w
	s.metrics.workersRegistered.Inc()
	s.logf("service: worker %s registered (pid %d), pool size %d", w.id, w.pid, len(s.workers))
	s.kickLocked()
	s.mu.Unlock()

	for {
		var m wireMsg
		if err := dec.Decode(&m); err != nil {
			s.workerGone(w)
			return
		}
		s.handleMsg(w, m)
	}
}

// handleMsg processes one worker → daemon message.
func (s *Server) handleMsg(w *worker, m wireMsg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.Type == msgProfileResult {
		// Profiles are per-worker, not per-job: deliver before the job
		// gate below (which would drop the jobless message).
		if ch := s.profileWaiters[m.ProfileID]; ch != nil {
			delete(s.profileWaiters, m.ProfileID)
			ch <- profileReply{data: m.Data, err: m.Error}
		}
		return
	}
	j := s.jobs[m.Job]
	if j == nil || w.job != m.Job {
		return // stale message from a reassigned or canceled run
	}
	now := time.Now()
	switch m.Type {
	case msgProgress:
		// Every rank reports every iteration; log each iteration once.
		if m.Iteration > j.lastIteration {
			j.lastIteration, j.lastLnL = m.Iteration, m.LnL
			j.appendEvent(now, Event{Type: "progress", Iteration: m.Iteration, LnL: m.LnL, Worker: w.id})
		}
	case msgRecovered:
		w.rank = m.Rank
		if j.workers != nil {
			j.workers[w.id] = m.Rank
		}
		if m.Epoch > j.epoch {
			j.epoch = m.Epoch
		}
		j.appendEvent(now, Event{
			Type: "recovered", Rank: m.Rank, WorldSize: m.WorldSize,
			Epoch: m.Epoch, Iteration: m.ResumedIteration, Worker: w.id,
		})
	case msgTrace:
		j.appendEvent(now, Event{Type: "trace", Worker: w.id, Trace: append(json.RawMessage(nil), m.Line...)})
	case msgDone:
		s.releaseLocked(w, j)
		if j.state == JobRunning {
			j.state = JobDone
			j.finished = now
			j.result = m.Result
			j.appendEvent(now, Event{Type: "done", Worker: w.id})
			s.finishMetricsLocked(j, JobDone, now)
			s.logf("service: job %s done (%d iterations, lnl %.6f)", j.id, m.Result.Iterations, m.Result.LogLikelihood)
		}
		s.kickLocked()
	case msgFailed:
		s.releaseLocked(w, j)
		if j.state == JobRunning {
			j.state = JobFailed
			j.finished = now
			j.err = m.Error
			j.appendEvent(now, Event{Type: "failed", Message: m.Error, Worker: w.id})
			s.finishMetricsLocked(j, JobFailed, now)
			s.logf("service: job %s failed: %s", j.id, m.Error)
		}
		s.kickLocked()
	}
}

// releaseLocked returns a worker to the idle pool.
func (s *Server) releaseLocked(w *worker, j *job) {
	if j != nil && j.workers != nil {
		delete(j.workers, w.id)
	}
	w.job = ""
	w.rank = 0
	if w.state == workerBusy {
		w.state = workerIdle
	}
}

// workerGone handles a dropped worker connection: the worker leaves
// the pool, and if it was carrying a rank of a live job the scheduler
// tries to migrate that rank onto an idle replacement.
func (s *Server) workerGone(w *worker) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.state == workerDead {
		return
	}
	w.state = workerDead
	delete(s.workers, w.id)
	w.conn.Close()
	s.metrics.workersLost.Inc()
	s.logf("service: worker %s lost, pool size %d", w.id, len(s.workers))
	if j := s.jobs[w.job]; j != nil {
		deadRank := w.rank
		s.releaseLocked(w, j)
		w.state = workerDead
		if j.state == JobRunning && !j.canceling {
			s.migrateLocked(j, deadRank, w.id)
		}
	}
	s.kickLocked()
}

// migrateLocked reacts to losing one rank of a running job: dispatch
// an idle worker as a replacement joining the survivors' recovery
// epoch at the dead worker's rank, restoring the world to full
// strength — which keeps the resumed trajectory bit-identical to an
// undisturbed run. Without a spare (or budget) the job continues on
// the shrunken world, which still finishes but changes the summation
// order (docs/DETERMINISM.md).
func (s *Server) migrateLocked(j *job, deadRank int, deadWorker string) {
	now := time.Now()
	j.epoch++
	if j.epoch > j.spec.MaxRecoveries {
		s.metrics.degraded.Inc()
		j.appendEvent(now, Event{
			Type: "degraded", Epoch: j.epoch, Worker: deadWorker,
			Message: fmt.Sprintf("rank %d lost and the recovery budget (%d) is exhausted", deadRank, j.spec.MaxRecoveries),
		})
		return
	}
	rw := s.idleWorkersLocked()
	if len(rw) == 0 {
		j.shrinks++
		s.metrics.shrinks.Inc()
		s.metrics.degraded.Inc()
		j.appendEvent(now, Event{
			Type: "degraded", Rank: deadRank, Epoch: j.epoch, Worker: deadWorker,
			Message: "no idle worker for migration; survivors continue on a shrunken world",
		})
		s.logf("service: job %s rank %d lost, no spare — shrinking", j.id, deadRank)
		return
	}
	r := rw[0]
	m := s.runOrderLocked(j, r, deadRank)
	m.JoinEpoch = j.epoch
	j.migrations++
	s.metrics.migrations.Inc()
	j.appendEvent(now, Event{
		Type: "migrated", Rank: deadRank, Epoch: j.epoch, Worker: r.id,
		Message: fmt.Sprintf("rank %d migrated from %s to %s", deadRank, deadWorker, r.id),
	})
	s.logf("service: job %s rank %d migrating from %s to %s (epoch %d)", j.id, deadRank, deadWorker, r.id, j.epoch)
	r.sendAsync(m)
}
