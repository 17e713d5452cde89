package server

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// newEventsServer starts a server whose jobs the tests below register by
// hand, so each controls a job's event list exactly.
func newEventsServer(t testing.TB) *Server {
	t.Helper()
	s, err := New(Config{DataDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return s
}

// addJob registers a job holding exactly evs in the given state, bypassing
// the queue.
func addJob(s *Server, state JobState, evs ...Event) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.newJobLocked(JobSpec{}, "", nil)
	j.state = state
	j.events = evs
	return j
}

// eventIDs parses the id lines of an SSE stream.
func eventIDs(t testing.TB, body string) []int {
	t.Helper()
	var ids []int
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), "id: "); ok {
			n, err := strconv.Atoi(line)
			if err != nil {
				t.Fatalf("bad id line %q: %v", sc.Text(), err)
			}
			ids = append(ids, n)
		}
	}
	return ids
}

// TestEventsSinceBeyondHistory: a since past the events recorded so far
// is rejected, and since equal to the count waits for the next event and
// labels it with its absolute index.
func TestEventsSinceBeyondHistory(t *testing.T) {
	s := newEventsServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	j := addJob(s, StateRunning,
		Event{Type: "state", State: StateQueued},
		Event{Type: "state", State: StateRunning},
		Event{Type: "point", Key: "p0", Done: 1, Total: 2})
	events := func(since int) *http.Response {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?since=%d", ts.URL, j.id, since))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := events(7)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("since=7 on a 3-event job returned %d, want 400", resp.StatusCode)
	}

	resp = events(3)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("since=3 on a 3-event job returned %d, want 200", resp.StatusCode)
	}
	j.point("p1", false)
	j.setState(StateDone, nil)
	sc := bufio.NewScanner(resp.Body)
	var id, data string
	for sc.Scan() && data == "" {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "id: "); ok {
			id = v
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok {
			data = v
		}
	}
	if id != "3" || !strings.Contains(data, `"key":"p1"`) {
		t.Errorf("first event after since=3 is id %q data %s, want id 3 carrying point p1", id, data)
	}
}

// FuzzEventsSince drives the resume index of the SSE endpoint with
// arbitrary strings against a finished job with a known event list: the
// handler never panics; non-integers, negatives and indices beyond the
// list get 400; any other since streams exactly the ids since..len-1.
func FuzzEventsSince(f *testing.F) {
	for _, seed := range []string{"", "0", "3", "5", "6", "-1", "+2", "007", "abc", "1e3", " 1", "99999999999999999999"} {
		f.Add(seed)
	}
	s := newEventsServer(f)
	evs := []Event{
		{Type: "state", State: StateQueued},
		{Type: "state", State: StateRunning},
		{Type: "point", Key: "p0", Done: 1, Total: 2},
		{Type: "point", Key: "p1", Done: 2, Total: 2},
		{Type: "state", State: StateDone, Done: 2, Total: 2},
	}
	j := addJob(s, StateDone, evs...)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, since string) {
		target := "/v1/jobs/" + j.id + "/events"
		if since != "" {
			target += "?since=" + url.QueryEscape(since)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))

		start, err := 0, error(nil)
		if since != "" {
			start, err = strconv.Atoi(since)
		}
		if err != nil || start < 0 || start > len(evs) {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("since %q returned %d, want 400", since, rec.Code)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("since %q returned %d, want 200", since, rec.Code)
		}
		ids := eventIDs(t, rec.Body.String())
		if len(ids) != len(evs)-start {
			t.Fatalf("since %q streamed ids %v, want %d..%d", since, ids, start, len(evs)-1)
		}
		for k, id := range ids {
			if id != start+k {
				t.Fatalf("since %q streamed ids %v, want %d..%d", since, ids, start, len(evs)-1)
			}
		}
	})
}
