package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/service/client"
)

// jobView is the status representation of a job on the wire, shared
// with the client package so client and daemon can never disagree.
type jobView = client.JobView

func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// viewLocked renders a job's status under the server mutex.
func viewLocked(j *job) jobView {
	return jobView{
		ID:            j.id,
		State:         j.state,
		Ranks:         j.spec.Ranks,
		Campaign:      j.spec.Campaign,
		Created:       stamp(j.created),
		Started:       stamp(j.started),
		Finished:      stamp(j.finished),
		Iteration:     j.lastIteration,
		LnL:           j.lastLnL,
		Epochs:        j.epoch + 1,
		Migrations:    j.migrations,
		Shrinks:       j.shrinks,
		Error:         j.err,
		Events:        j.nextSeq,
		DroppedEvents: j.dropped,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, map[string]any{"error": map[string]string{
		"code":    code,
		"message": fmt.Sprintf(format, args...),
	}})
}

// Handler returns the HTTP/JSON control API (see docs/SERVICE.md).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /api/v1/pool", s.handlePool)
	mux.HandleFunc("GET /api/v1/pool/{id}/profile", s.handleWorkerProfile)
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/jobs/{id}/stream", s.handleStream)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	workers, jobs, queued := len(s.workers), len(s.jobs), 0
	for _, id := range s.queue {
		if j := s.jobs[id]; j != nil && j.state == JobQueued {
			queued++
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok": true, "workers": workers, "jobs": jobs, "queued": queued,
	})
}

func (s *Server) handlePool(w http.ResponseWriter, r *http.Request) {
	type workerView struct {
		ID    string `json:"id"`
		PID   int    `json:"pid"`
		State string `json:"state"`
		Job   string `json:"job,omitempty"`
		Rank  int    `json:"rank,omitempty"`
	}
	s.mu.Lock()
	views := make([]workerView, 0, len(s.workers))
	idle, busy := 0, 0
	for _, wk := range s.workers {
		views = append(views, workerView{ID: wk.id, PID: wk.pid, State: wk.state.String(), Job: wk.job, Rank: wk.rank})
		if wk.state == workerIdle {
			idle++
		} else if wk.state == workerBusy {
			busy++
		}
	}
	s.mu.Unlock()
	sort.Slice(views, func(i, k int) bool { return views[i].ID < views[k].ID })
	writeJSON(w, http.StatusOK, map[string]any{"workers": views, "idle": idle, "busy": busy})
}

// handleWorkerProfile relays a pprof capture from a worker process:
// GET /api/v1/pool/{id}/profile?name=heap[&seconds=5]. The body is the
// raw pprof protobuf, ready for `go tool pprof`.
func (s *Server) handleWorkerProfile(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "heap"
	}
	if !profileNames[name] {
		writeErr(w, http.StatusBadRequest, "bad_request", "unknown profile %q", name)
		return
	}
	seconds := 0
	if q := r.URL.Query().Get("seconds"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 || n > maxProfileSeconds {
			writeErr(w, http.StatusBadRequest, "bad_request", "seconds must be in [1,%d]", maxProfileSeconds)
			return
		}
		seconds = n
	}
	id := r.PathValue("id")
	data, err := s.CaptureProfile(id, name, seconds, time.Duration(seconds+10)*time.Second)
	if err != nil {
		writeErr(w, http.StatusBadGateway, "profile_failed", "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf(`attachment; filename=%q`, id+"-"+name+".pb.gz"))
	w.Write(data)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "decoding job spec: %v", err)
		return
	}
	j, err := s.submit(spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid_spec", "%v", err)
		return
	}
	s.mu.Lock()
	v := viewLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]jobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, viewLocked(s.jobs[id]))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

// lookup resolves the {id} path value, answering 404 itself when the
// job does not exist.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeErr(w, http.StatusNotFound, "not_found", "no job %q", r.PathValue("id"))
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	v := viewLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	state, errMsg, res := j.state, j.err, j.result
	s.mu.Unlock()
	switch {
	case res != nil:
		writeJSON(w, http.StatusOK, res)
	case state == JobFailed:
		writeErr(w, http.StatusConflict, "job_failed", "%s", errMsg)
	case state == JobCanceled:
		writeErr(w, http.StatusConflict, "job_canceled", "job %s was canceled", j.id)
	default:
		writeErr(w, http.StatusConflict, "not_finished", "job %s is %s", j.id, state)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if !s.cancel(j) {
		s.mu.Lock()
		state := j.state
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, "already_finished", "job %s is already %s", j.id, state)
		return
	}
	s.mu.Lock()
	v := viewLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	since := uint64(0)
	if q := r.URL.Query().Get("since"); q != "" {
		n, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad_request", "since must be a sequence number: %v", err)
			return
		}
		since = n
	}
	// Optional long poll: block up to wait_ms for news past `since`.
	var wait time.Duration
	if q := r.URL.Query().Get("wait_ms"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 || n > 60000 {
			writeErr(w, http.StatusBadRequest, "bad_request", "wait_ms must be in [0,60000]")
			return
		}
		wait = time.Duration(n) * time.Millisecond
	}

	deadline := time.Now().Add(wait)
	for {
		s.mu.Lock()
		evs := j.eventsSince(since)
		next := j.nextSeq
		dropped := j.dropped
		state := j.state
		notify := j.notify
		s.mu.Unlock()
		if len(evs) > 0 || state.Terminal() || time.Now().After(deadline) {
			writeJSON(w, http.StatusOK, map[string]any{
				"events": evs, "next": next, "dropped": dropped, "state": state,
			})
			return
		}
		select {
		case <-notify:
		case <-time.After(time.Until(deadline)):
		case <-r.Context().Done():
			return
		}
	}
}

// handleStream is the SSE feed: every event as a `data:` frame with
// the sequence number as the SSE id, ending once the job is terminal
// and the buffer is drained. `Last-Event-ID` (or ?since=) resumes.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusNotImplemented, "no_stream", "response writer cannot stream")
		return
	}
	since := uint64(0)
	if q := r.Header.Get("Last-Event-ID"); q != "" {
		if n, err := strconv.ParseUint(q, 10, 64); err == nil {
			since = n + 1
		}
	}
	if q := r.URL.Query().Get("since"); q != "" {
		if n, err := strconv.ParseUint(q, 10, 64); err == nil {
			since = n
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	for {
		s.mu.Lock()
		evs := j.eventsSince(since)
		state := j.state
		notify := j.notify
		s.mu.Unlock()
		for _, ev := range evs {
			payload, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.Seq, payload)
			since = ev.Seq + 1
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		if state.Terminal() {
			if len(evs) == 0 {
				return
			}
			// Read again rather than wait: a job that sent its terminal
			// event in this snapshot may never notify again.
			continue
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}
