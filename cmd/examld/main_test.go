package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
)

// TestMetricsPageListsOnlyDaemonSeries: the daemon's /metrics carries
// its scheduler, pool and job families and no inference series. Those
// move only in the worker processes, so on this page they would read 0
// forever.
func TestMetricsPageListsOnlyDaemonSeries(t *testing.T) {
	srv, err := service.New(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rec := httptest.NewRecorder()
	newMux(srv, true, false).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	page := rec.Body.String()
	for _, family := range []string{"examld_jobs_submitted_total", "examld_queue_depth", "examld_workers_connected"} {
		if !strings.Contains(page, "\n"+family+" ") {
			t.Errorf("page lacks %s", family)
		}
	}
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "examl_") || strings.HasPrefix(line, "mpinet_") {
			t.Errorf("page serves a series no daemon code updates: %s", line)
		}
	}
}
