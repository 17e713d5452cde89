// Package client is the small HTTP client behind cmd/biaslab's -server
// mode: submit a job to a biaslabd daemon, follow its progress, and fetch
// the stored result. It speaks only the wire types of internal/server, so
// the CLI and the daemon cannot drift apart.
//
// The client is transient-failure tolerant: connection failures and 5xx
// responses are retried with capped exponential backoff (every request
// here is safe to repeat — GETs are read-only, and POST /v1/jobs is
// idempotent because the daemon content-keys and singleflights
// submissions), and a dropped SSE stream reconnects and resumes from the
// last event index it saw, so a watcher misses nothing across a network
// blip.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"biaslab/internal/retry"
	"biaslab/internal/server"
)

// Client talks to one biaslabd daemon.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
	// Retry paces transient-failure retries and SSE reconnects. The zero
	// value selects the package defaults (5 attempts, 50ms–2s backoff).
	Retry retry.Policy
}

// New builds a client for the daemon at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// statusError is a non-2xx daemon response, carrying the status so the
// retry predicate can separate server trouble (5xx, transient) from
// caller mistakes (4xx, permanent).
type statusError struct {
	method, path string
	status       int
	msg          string
}

func (e *statusError) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("client: %s %s: %s", e.method, e.path, e.msg)
	}
	return fmt.Sprintf("client: %s %s: HTTP %d", e.method, e.path, e.status)
}

// transient reports whether an error is worth retrying: any transport
// failure, or a 5xx. 4xx responses are the caller's fault and retrying
// would only repeat them.
func transient(err error) bool {
	if se, ok := err.(*statusError); ok {
		return se.status >= 500
	}
	return true
}

// do issues one request (with retries) and returns the response body of
// the first 2xx answer.
func (c *Client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var data []byte
	err := c.Retry.Do(ctx, method+" "+path, transient, func() error {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, err = io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode/100 != 2 {
			var apiErr struct {
				Error string `json:"error"`
			}
			json.Unmarshal(data, &apiErr)
			return &statusError{method: method, path: path, status: resp.StatusCode, msg: apiErr.Error}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return data, nil
}

// doJSON issues a request and decodes the JSON response into out.
func (c *Client) doJSON(ctx context.Context, method, path string, body any, out any) error {
	var encoded []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		encoded = b
	}
	data, err := c.do(ctx, method, path, encoded)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Submit posts a job spec. Safe under retry: the daemon content-keys the
// spec, so a resubmission after a lost response lands on the same job.
func (c *Client) Submit(ctx context.Context, spec server.JobSpec) (*server.SubmitResponse, error) {
	var resp server.SubmitResponse
	if err := c.doJSON(ctx, http.MethodPost, "/v1/jobs", spec, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Job fetches a job's status.
func (c *Client) Job(ctx context.Context, id string) (*server.JobStatus, error) {
	var st server.JobStatus
	if err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait follows the job's event stream until it reaches a terminal state,
// then reads its status once and returns it: a failed or canceled job is
// a status, not an error. It returns ctx.Err() when ctx ends first.
func (c *Client) Wait(ctx context.Context, id string) (*server.JobStatus, error) {
	return c.Follow(ctx, id, func(server.Event) {})
}

// Follow is Wait that also hands every event of the job, historical and
// live, to fn — one stream serves both the progress display and the wait.
func (c *Client) Follow(ctx context.Context, id string, fn func(server.Event)) (*server.JobStatus, error) {
	if err := c.Events(ctx, id, fn); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.Job(ctx, id)
}

// Result fetches the stored canonical result bytes for a content key and
// their decoded form. The raw bytes are exactly what the daemon stored —
// print them for -json output and a remote result is byte-identical to a
// local one.
func (c *Client) Result(ctx context.Context, key string) (*server.Result, []byte, error) {
	raw, err := c.do(ctx, http.MethodGet, "/v1/results/"+key, nil)
	if err != nil {
		return nil, nil, err
	}
	res, err := server.DecodeResult(raw)
	if err != nil {
		return nil, nil, err
	}
	return res, raw, nil
}

// Catalog fetches the daemon's catalog.
func (c *Client) Catalog(ctx context.Context) (*server.Catalog, error) {
	var cat server.Catalog
	if err := c.doJSON(ctx, http.MethodGet, "/v1/catalog", nil, &cat); err != nil {
		return nil, err
	}
	return &cat, nil
}

// Metrics fetches the daemon's text-format counters.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	data, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// Events subscribes to a job's SSE stream and invokes fn for every event,
// historical and live, until the job reaches a terminal state or ctx is
// cancelled. A cancelled ctx is not an error: the caller chose to stop
// watching.
//
// The subscription survives disconnects: the client tracks the index of
// the next event it needs (fed by the stream's id: lines) and reconnects
// with ?since=<index>, so the daemon replays exactly the missed events —
// no duplicates, no gaps. Reconnect attempts are paced by the Retry
// policy; the budget resets whenever a connection makes progress.
func (c *Client) Events(ctx context.Context, id string, fn func(server.Event)) error {
	next := 0 // index of the next event this watcher has not seen
	failures := 0
	pol := c.Retry
	for {
		terminal, progressed, err := c.streamEvents(ctx, id, &next, fn)
		switch {
		case terminal || ctx.Err() != nil:
			return nil
		case err != nil && !transient(err):
			return err
		}
		// The stream dropped mid-job (or ended without a terminal event):
		// reconnect from where we left off.
		if progressed {
			failures = 0
		}
		failures++
		maxFailures := pol.Attempts
		if maxFailures <= 0 {
			maxFailures = 5
		}
		if failures >= maxFailures {
			if err == nil {
				err = fmt.Errorf("client: event stream for %s ended before the job finished", id)
			}
			return err
		}
		t := time.NewTimer(pol.Delay("events/"+id, failures))
		select {
		case <-ctx.Done():
			return nil
		case <-t.C:
		}
	}
}

// streamEvents consumes one SSE connection. It reports whether a terminal
// state event arrived (the stream's natural end) and whether any event at
// all arrived (progress, which resets the reconnect budget). next is
// advanced past every dispatched event, in step with the server's id:
// lines.
func (c *Client) streamEvents(ctx context.Context, id string, next *int, fn func(server.Event)) (terminal, progressed bool, err error) {
	path := "/v1/jobs/" + id + "/events"
	if *next > 0 {
		path += "?since=" + strconv.Itoa(*next)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return false, false, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return false, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		var apiErr struct {
			Error string `json:"error"`
		}
		json.Unmarshal(data, &apiErr)
		return false, false, &statusError{method: http.MethodGet, path: path, status: resp.StatusCode, msg: apiErr.Error}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var data string
	idx := *next
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id:"):
			if n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "id:"))); err == nil {
				idx = n
			}
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case line == "" && data != "":
			var ev server.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return false, progressed, fmt.Errorf("client: decoding event: %w", err)
			}
			fn(ev)
			progressed = true
			*next = idx + 1
			data = ""
			if ev.Type == "state" {
				switch ev.State {
				case server.StateDone, server.StateFailed, server.StateCanceled:
					return true, true, nil
				}
			}
		}
	}
	return false, progressed, sc.Err()
}
