package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestMain lets the integration tests re-exec this test binary as real
// worker processes: the spawn maintainer appends the pool address as
// the final argument, and the role marker travels by environment.
func TestMain(m *testing.M) {
	if os.Getenv("SERVICE_TEST_ROLE") == "worker" {
		if err := RunWorker(os.Args[len(os.Args)-1]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// newAPITest starts a workerless server (everything queues) and an
// httptest front end over its handler.
func newAPITest(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func doJSON(t *testing.T, method, url string, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("%s %s: decoding body: %v", method, url, err)
	}
	return resp.StatusCode, m
}

const validSpec = `{"simulate":{"taxa":6,"partitions":1,"gene_length":20,"seed":1},"ranks":2,"max_iterations":1}`

func TestSubmitStatusCancelLifecycle(t *testing.T) {
	_, hs := newAPITest(t)

	code, j := doJSON(t, "POST", hs.URL+"/api/v1/jobs", validSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202 (%v)", code, j)
	}
	id, _ := j["id"].(string)
	if id == "" || j["state"] != "queued" {
		t.Fatalf("submit answered %v", j)
	}

	// With zero workers the job must stay queued and visible.
	code, st := doJSON(t, "GET", hs.URL+"/api/v1/jobs/"+id, "")
	if code != http.StatusOK || st["state"] != "queued" {
		t.Fatalf("status: %d %v", code, st)
	}
	code, list := doJSON(t, "GET", hs.URL+"/api/v1/jobs", "")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if jobs, _ := list["jobs"].([]any); len(jobs) != 1 {
		t.Fatalf("list: want 1 job, got %v", list)
	}

	// The result of an unfinished job is a 409, not a 404 or a wait.
	code, res := doJSON(t, "GET", hs.URL+"/api/v1/jobs/"+id+"/result", "")
	if code != http.StatusConflict {
		t.Fatalf("result while queued: %d %v", code, res)
	}

	// The event log already carries the queued event.
	code, evs := doJSON(t, "GET", hs.URL+"/api/v1/jobs/"+id+"/events", "")
	if code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
	events, _ := evs["events"].([]any)
	if len(events) != 1 || events[0].(map[string]any)["type"] != "queued" {
		t.Fatalf("events: %v", evs)
	}

	// Cancel: 200 once, 409 after.
	code, c := doJSON(t, "POST", hs.URL+"/api/v1/jobs/"+id+"/cancel", "")
	if code != http.StatusOK || c["state"] != "canceled" {
		t.Fatalf("cancel: %d %v", code, c)
	}
	code, c = doJSON(t, "POST", hs.URL+"/api/v1/jobs/"+id+"/cancel", "")
	if code != http.StatusConflict {
		t.Fatalf("second cancel: %d %v", code, c)
	}
	code, res = doJSON(t, "GET", hs.URL+"/api/v1/jobs/"+id+"/result", "")
	if code != http.StatusConflict || res["error"].(map[string]any)["code"] != "job_canceled" {
		t.Fatalf("result after cancel: %d %v", code, res)
	}

	// The SSE feed of the terminal job ends once it has sent every event,
	// and sends what /events returns: the same sequence numbers as SSE
	// ids, the same payloads.
	code, evs = doJSON(t, "GET", hs.URL+"/api/v1/jobs/"+id+"/events", "")
	if code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
	events, _ = evs["events"].([]any)
	if len(events) < 2 || events[len(events)-1].(map[string]any)["type"] != "canceled" {
		t.Fatalf("events of a canceled job: %v", evs)
	}
	stream := readStream(t, hs.URL+"/api/v1/jobs/"+id+"/stream", "")
	if len(stream) != len(events) {
		t.Fatalf("stream sent %d events, /events returns %d", len(stream), len(events))
	}
	for i, fr := range stream {
		ev := events[i].(map[string]any)
		if fr.id != fmt.Sprint(ev["seq"]) || !reflect.DeepEqual(fr.data, ev) {
			t.Fatalf("stream event %d is id %s %v, /events has %v", i, fr.id, fr.data, ev)
		}
	}
	// A Last-Event-ID resume starts after that id.
	resumed := readStream(t, hs.URL+"/api/v1/jobs/"+id+"/stream", stream[0].id)
	if !reflect.DeepEqual(resumed, stream[1:]) {
		t.Fatalf("resume after id %s sent %v, want %v", stream[0].id, resumed, stream[1:])
	}
}

// sseFrame is one event of a job's SSE feed: its id and decoded data.
type sseFrame struct {
	id   string
	data map[string]any
}

// readStream reads a job's SSE feed to its end, resuming after lastID
// when it is set.
func readStream(t *testing.T, url, lastID string) []sseFrame {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "text/event-stream" {
		t.Fatalf("stream: %d %s", resp.StatusCode, ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var frames []sseFrame
	for _, block := range strings.Split(strings.TrimSuffix(string(body), "\n\n"), "\n\n") {
		if block == "" {
			continue
		}
		id, data, ok := strings.Cut(block, "\n")
		if !ok || !strings.HasPrefix(id, "id: ") || !strings.HasPrefix(data, "data: ") {
			t.Fatalf("malformed SSE frame %q", block)
		}
		fr := sseFrame{id: strings.TrimPrefix(id, "id: ")}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(data, "data: ")), &fr.data); err != nil {
			t.Fatalf("SSE data %q: %v", data, err)
		}
		frames = append(frames, fr)
	}
	return frames
}

func TestSubmitValidation(t *testing.T) {
	_, hs := newAPITest(t)
	bad := []string{
		`{`, // malformed JSON
		`{}`,
		`{"ranks":2}`, // no dataset
		`{"simulate":{"taxa":6,"partitions":1,"gene_length":20},"phylip":"x"}`, // both datasets
		`{"simulate":{"taxa":2,"partitions":1,"gene_length":20}}`,              // too few taxa
		`{"simulate":{"taxa":6,"partitions":1,"gene_length":20},"ranks":-1}`,
		`{"simulate":{"taxa":6,"partitions":1,"gene_length":20},"ranks":1000}`,
		`{"simulate":{"taxa":6,"partitions":1,"gene_length":20},"max_iterations":-1}`,
		`{"simulate":{"taxa":6,"partitions":1,"gene_length":20},"inject_failure":{"rank":5,"after_iteration":1}}`,
		`{"simulate":{"taxa":6,"partitions":1,"gene_length":20},"unknown_field":true}`,
	}
	for _, body := range bad {
		code, resp := doJSON(t, "POST", hs.URL+"/api/v1/jobs", body)
		if code != http.StatusBadRequest {
			t.Errorf("submit %q: got %d (%v), want 400", body, code, resp)
		}
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, hs := newAPITest(t)
	for _, p := range []string{"/api/v1/jobs/nope", "/api/v1/jobs/nope/result", "/api/v1/jobs/nope/events"} {
		code, _ := doJSON(t, "GET", hs.URL+p, "")
		if code != http.StatusNotFound {
			t.Errorf("GET %s: got %d, want 404", p, code)
		}
	}
	code, _ := doJSON(t, "POST", hs.URL+"/api/v1/jobs/nope/cancel", "")
	if code != http.StatusNotFound {
		t.Errorf("cancel: got %d, want 404", code)
	}
}

func TestHealthzAndPool(t *testing.T) {
	_, hs := newAPITest(t)
	code, hz := doJSON(t, "GET", hs.URL+"/api/v1/healthz", "")
	if code != http.StatusOK || hz["ok"] != true {
		t.Fatalf("healthz: %d %v", code, hz)
	}
	code, pool := doJSON(t, "GET", hs.URL+"/api/v1/pool", "")
	if code != http.StatusOK {
		t.Fatalf("pool: %d", code)
	}
	if workers, _ := pool["workers"].([]any); len(workers) != 0 {
		t.Fatalf("pool of a workerless server: %v", pool)
	}
}

func TestEventsLongPollTimesOut(t *testing.T) {
	_, hs := newAPITest(t)
	_, j := doJSON(t, "POST", hs.URL+"/api/v1/jobs", validSpec)
	id := j["id"].(string)

	// since=1 skips the queued event; nothing else arrives, so the long
	// poll must come back empty after the wait — not hang.
	start := time.Now()
	code, evs := doJSON(t, "GET", hs.URL+"/api/v1/jobs/"+id+"/events?since=1&wait_ms=50", "")
	if code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
	if events, _ := evs["events"].([]any); len(events) != 0 {
		t.Fatalf("events past the queued one: %v", evs)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("long poll returned after %v, want ≥ the 50ms wait", elapsed)
	}
}

func TestEventRingDropsOldest(t *testing.T) {
	j := &job{notify: make(chan struct{})}
	now := time.Now()
	total := eventRingCap + 1
	for i := 0; i < total; i++ {
		j.appendEvent(now, Event{Type: "progress", Iteration: i})
	}
	if j.dropped != eventRingTrim {
		t.Fatalf("dropped %d, want %d", j.dropped, eventRingTrim)
	}
	evs := j.eventsSince(0)
	if len(evs) != total-eventRingTrim {
		t.Fatalf("ring holds %d, want %d", len(evs), total-eventRingTrim)
	}
	if evs[0].Seq != uint64(eventRingTrim) {
		t.Fatalf("first surviving seq %d, want %d", evs[0].Seq, eventRingTrim)
	}
	if last := evs[len(evs)-1]; last.Seq != uint64(total-1) || last.Iteration != total-1 {
		t.Fatalf("last surviving event %+v", last)
	}
}
