package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// Client speaks the examld HTTP/JSON API (docs/SERVICE.md). The zero
// value is not usable; create with New.
type Client struct {
	base string
}

// New returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8441"); a trailing "/api/v1" is accepted and
// normalized away.
func New(baseURL string) *Client {
	for _, suffix := range []string{"/", "/api/v1", "/"} {
		for len(baseURL) > len(suffix) && baseURL[len(baseURL)-len(suffix):] == suffix {
			baseURL = baseURL[:len(baseURL)-len(suffix)]
		}
	}
	return &Client{base: baseURL + "/api/v1"}
}

// APIError is a structured error response from the daemon.
type APIError struct {
	Status  int    // HTTP status code
	Code    string // machine-readable error code ("not_found", …)
	Message string
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("service: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
}

// do issues one request and decodes the JSON response (or the
// daemon's structured error envelope) into out.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		var envelope struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if json.Unmarshal(raw, &envelope) == nil && envelope.Error.Message != "" {
			return &APIError{Status: resp.StatusCode, Code: envelope.Error.Code, Message: envelope.Error.Message}
		}
		return &APIError{Status: resp.StatusCode, Code: "http_error", Message: resp.Status}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// Submit validates the spec client-side and submits it, returning the
// accepted job's status view (including its ID).
func (c *Client) Submit(ctx context.Context, spec JobSpec) (*JobView, error) {
	if err := spec.Normalize(); err != nil {
		return nil, fmt.Errorf("service: invalid job spec: %w", err)
	}
	var v JobView
	if err := c.do(ctx, http.MethodPost, "/jobs", &spec, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// Status fetches a job's current status.
func (c *Client) Status(ctx context.Context, id string) (*JobView, error) {
	var v JobView
	if err := c.do(ctx, http.MethodGet, "/jobs/"+url.PathEscape(id), nil, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// Result fetches a finished job's result; the daemon answers 409 (an
// *APIError) while the job is still running or if it failed.
func (c *Client) Result(ctx context.Context, id string) (*JobResult, error) {
	var r JobResult
	if err := c.do(ctx, http.MethodGet, "/jobs/"+url.PathEscape(id)+"/result", nil, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Events long-polls the job's event log for events with Seq ≥ since,
// blocking server-side up to wait (capped by the API at 60s).
func (c *Client) Events(ctx context.Context, id string, since uint64, wait time.Duration) (*EventsPage, error) {
	q := url.Values{}
	q.Set("since", strconv.FormatUint(since, 10))
	if wait > 0 {
		q.Set("wait_ms", strconv.Itoa(int(wait.Milliseconds())))
	}
	var page EventsPage
	path := "/jobs/" + url.PathEscape(id) + "/events?" + q.Encode()
	if err := c.do(ctx, http.MethodGet, path, nil, &page); err != nil {
		return nil, err
	}
	return &page, nil
}

// Wait follows a job to a terminal state via long-polled events and
// returns its result. A failed or canceled job returns an error carrying
// the daemon's diagnostic. OnEvent, when non-nil, observes every event.
func (c *Client) Wait(ctx context.Context, id string, onEvent func(Event)) (*JobResult, error) {
	var since uint64
	for {
		page, err := c.Events(ctx, id, since, 30*time.Second)
		if err != nil {
			return nil, err
		}
		for _, ev := range page.Events {
			if onEvent != nil {
				onEvent(ev)
			}
		}
		since = page.Next
		if !page.State.Terminal() {
			continue
		}
		switch page.State {
		case JobDone:
			return c.Result(ctx, id)
		case JobCanceled:
			return nil, fmt.Errorf("service: job %s was canceled", id)
		default:
			st, err := c.Status(ctx, id)
			if err != nil {
				return nil, fmt.Errorf("service: job %s failed", id)
			}
			return nil, fmt.Errorf("service: job %s failed: %s", id, st.Error)
		}
	}
}
