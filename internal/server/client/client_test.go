package client_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"biaslab/internal/retry"
	"biaslab/internal/server"
	"biaslab/internal/server/client"
)

func testClient(url string) *client.Client {
	c := client.New(url)
	c.Retry = retry.Policy{Attempts: 3, Base: time.Millisecond, Cap: 5 * time.Millisecond}
	return c
}

// TestSubmitRetriesTransient: 5xx responses are server trouble — the
// client retries with backoff until the daemon recovers. Submission is
// retry-safe because the server deduplicates by content key.
func TestSubmitRetriesTransient(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n <= 2 {
			http.Error(w, `{"error":"restarting"}`, http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(server.SubmitResponse{ID: "j1", Key: "k1", State: server.StateQueued})
	}))
	defer ts.Close()

	sub, err := testClient(ts.URL).Submit(context.Background(), server.JobSpec{Kind: server.KindRun, Size: "test", Bench: "hmmer", Machine: "p4"})
	if err != nil {
		t.Fatalf("Submit did not survive transient 503s: %v", err)
	}
	if sub.ID != "j1" {
		t.Errorf("ID = %q, want j1", sub.ID)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 3 {
		t.Errorf("server saw %d requests, want 3 (two failures + success)", calls)
	}
}

// TestSubmitDoesNotRetryCallerMistakes: a 4xx is permanent; retrying
// would just repeat the mistake.
func TestSubmitDoesNotRetryCallerMistakes(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		mu.Unlock()
		http.Error(w, `{"error":"no such benchmark"}`, http.StatusBadRequest)
	}))
	defer ts.Close()

	if _, err := testClient(ts.URL).Submit(context.Background(), server.JobSpec{Kind: server.KindRun}); err == nil {
		t.Fatal("Submit swallowed a 400")
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Errorf("server saw %d requests, want exactly 1 (no retry on 4xx)", calls)
	}
}

// TestSubmitRetriesConnectionRefused: a daemon that is briefly down
// (restart, deploy) refuses connections at the TCP level; the client
// retries those too.
func TestSubmitRetriesConnectionRefused(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.SubmitResponse{ID: "j1", Key: "k1", State: server.StateQueued})
	}))
	url := ts.URL
	ts.Close() // the port now refuses connections

	c := testClient(url)
	if _, err := c.Submit(context.Background(), server.JobSpec{Kind: server.KindRun}); err == nil {
		t.Fatal("Submit succeeded against a dead daemon")
	}
	// All attempts must have been spent on the network error before giving
	// up — observable through the error being a dial failure, not a status.
}

// writeEvent emits one SSE frame in the server's wire format.
func writeEvent(w http.ResponseWriter, idx int, ev server.Event) {
	data, _ := json.Marshal(ev)
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", idx, ev.Type, data)
}

// TestEventsReconnectResumes: when the stream drops mid-job (EOF with no
// terminal event), the client reconnects with ?since=<next unseen index>
// and the combined delivery is exactly-once, in order.
func TestEventsReconnectResumes(t *testing.T) {
	var mu sync.Mutex
	conns := 0
	var sinces []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		conns++
		n := conns
		sinces = append(sinces, r.URL.Query().Get("since"))
		mu.Unlock()
		w.Header().Set("Content-Type", "text/event-stream")
		if n == 1 {
			// Three point events, then the connection dies mid-job.
			for i := 0; i < 3; i++ {
				writeEvent(w, i, server.Event{Type: "point", Key: fmt.Sprintf("p%d", i), Done: i + 1, Total: 6})
			}
			return
		}
		// Resumed connection: the rest of the job, ending terminally.
		for i := 3; i < 5; i++ {
			writeEvent(w, i, server.Event{Type: "point", Key: fmt.Sprintf("p%d", i), Done: i + 1, Total: 6})
		}
		writeEvent(w, 5, server.Event{Type: "state", State: server.StateDone})
	}))
	defer ts.Close()

	var got []server.Event
	if err := testClient(ts.URL).Events(context.Background(), "j1", func(ev server.Event) {
		got = append(got, ev)
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("delivered %d events, want 6 exactly-once", len(got))
	}
	for i := 0; i < 5; i++ {
		if want := fmt.Sprintf("p%d", i); got[i].Key != want {
			t.Errorf("event %d = %q, want %q (order or dedup broken)", i, got[i].Key, want)
		}
	}
	if got[5].State != server.StateDone {
		t.Errorf("final event state = %q, want done", got[5].State)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sinces) != 2 || sinces[0] != "" || sinces[1] != "3" {
		t.Errorf("since parameters = %v, want [\"\" \"3\"]", sinces)
	}
}

// TestEventsGivesUpWithoutProgress: a stream that keeps dying without
// delivering anything exhausts the reconnect budget instead of spinning
// forever.
func TestEventsGivesUpWithoutProgress(t *testing.T) {
	var mu sync.Mutex
	conns := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		conns++
		mu.Unlock()
		w.Header().Set("Content-Type", "text/event-stream")
		// EOF immediately: no events, no terminal state.
	}))
	defer ts.Close()

	err := testClient(ts.URL).Events(context.Background(), "j1", func(server.Event) {})
	if err == nil {
		t.Fatal("Events returned nil for a stream that never finished")
	}
	mu.Lock()
	defer mu.Unlock()
	if conns < 2 {
		t.Errorf("client gave up after %d connections without using its reconnect budget", conns)
	}
}

// waitDaemon is an httptest daemon for one job, "j1": its event stream is
// stream, and it counts the connections to that stream and the status
// reads of the job, which report final.
type waitDaemon struct {
	mu           sync.Mutex
	streams      int
	statusReads  int
	streamOpened chan struct{}
}

func newWaitDaemon(t *testing.T, final server.JobStatus, stream func(w http.ResponseWriter, r *http.Request)) (*waitDaemon, string) {
	d := &waitDaemon{streamOpened: make(chan struct{}, 8)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/j1/events", func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		d.streams++
		d.mu.Unlock()
		d.streamOpened <- struct{}{}
		w.Header().Set("Content-Type", "text/event-stream")
		stream(w, r)
	})
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		d.statusReads++
		d.mu.Unlock()
		json.NewEncoder(w).Encode(final)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return d, ts.URL
}

func (d *waitDaemon) counts() (streams, statusReads int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.streams, d.statusReads
}

// TestWaitFollowsEventsThenReadsStatusOnce: a job that runs for a while
// costs one event stream and exactly one status read, however long it
// runs — Wait does not poll.
func TestWaitFollowsEventsThenReadsStatusOnce(t *testing.T) {
	d, url := newWaitDaemon(t, server.JobStatus{ID: "j1", State: server.StateDone, Progress: server.Progress{Done: 4, Total: 4}},
		func(w http.ResponseWriter, r *http.Request) {
			fl := w.(http.Flusher)
			writeEvent(w, 0, server.Event{Type: "state", State: server.StateQueued})
			writeEvent(w, 1, server.Event{Type: "state", State: server.StateRunning})
			fl.Flush()
			for i := 0; i < 4; i++ {
				time.Sleep(100 * time.Millisecond)
				writeEvent(w, 2+i, server.Event{Type: "point", Key: fmt.Sprintf("p%d", i), Done: i + 1, Total: 4})
				fl.Flush()
			}
			writeEvent(w, 6, server.Event{Type: "state", State: server.StateDone, Done: 4, Total: 4})
		})

	st, err := testClient(url).Wait(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone || st.Progress.Done != 4 {
		t.Errorf("status = %+v, want done with 4 points", st)
	}
	if streams, reads := d.counts(); streams != 1 || reads != 1 {
		t.Errorf("Wait opened %d event streams and read the status %d times, want 1 and 1", streams, reads)
	}
}

// TestWaitFailedJobIsAStatus: a job that fails returns its status, with
// the failure detail, and no error — the wait itself succeeded.
func TestWaitFailedJobIsAStatus(t *testing.T) {
	detail := &server.ErrorDetail{Message: "measure: checksum mismatch", Stage: "measure"}
	d, url := newWaitDaemon(t, server.JobStatus{ID: "j1", State: server.StateFailed, Error: detail},
		func(w http.ResponseWriter, r *http.Request) {
			writeEvent(w, 0, server.Event{Type: "state", State: server.StateQueued})
			writeEvent(w, 1, server.Event{Type: "state", State: server.StateFailed, Error: detail})
		})

	st, err := testClient(url).Wait(context.Background(), "j1")
	if err != nil {
		t.Fatalf("Wait on a failed job returned an error: %v", err)
	}
	if st.State != server.StateFailed || st.Error == nil || st.Error.Message != detail.Message {
		t.Errorf("status = %+v, want failed with %q", st, detail.Message)
	}
	if _, reads := d.counts(); reads != 1 {
		t.Errorf("status read %d times, want 1", reads)
	}
}

// TestWaitCanceledContext: a wait whose context ends before the job does
// returns ctx.Err() and never reads the status.
func TestWaitCanceledContext(t *testing.T) {
	d, url := newWaitDaemon(t, server.JobStatus{ID: "j1", State: server.StateDone},
		func(w http.ResponseWriter, r *http.Request) {
			writeEvent(w, 0, server.Event{Type: "state", State: server.StateRunning})
			w.(http.Flusher).Flush()
			<-r.Context().Done() // the job never finishes
		})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-d.streamOpened
		cancel()
	}()
	st, err := testClient(url).Wait(ctx, "j1")
	if err != context.Canceled {
		t.Fatalf("Wait = (%+v, %v), want context.Canceled", st, err)
	}
	if _, reads := d.counts(); reads != 0 {
		t.Errorf("status read %d times after the context ended, want 0", reads)
	}
}
