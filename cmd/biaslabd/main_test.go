package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"testing"
	"time"

	"biaslab/internal/bench"
	"biaslab/internal/cluster"
	"biaslab/internal/core"
	"biaslab/internal/retry"
)

// TestSelfcheck runs the deploy smoke test in-process: one tiny job pushed
// through the full HTTP path twice, with every counter cross-checked. This
// is the same code -selfcheck executes, so a green test means the shipped
// smoke test itself works.
func TestSelfcheck(t *testing.T) {
	if err := runSelfcheck("test"); err != nil {
		t.Fatalf("selfcheck: %v", err)
	}
}

// TestSelfcheckRejectsBadSize: a bad -size must fail fast, not fall back
// to measuring something else.
func TestSelfcheckRejectsBadSize(t *testing.T) {
	if err := runSelfcheck("enormous"); err == nil {
		t.Fatal("selfcheck accepted an unknown workload size")
	}
}

// TestDrainEndsHeldHeartbeat: a worker idle on a coordinator whose
// heartbeat interval is an hour has its beat held by the daemon. The
// daemon's drain must not wait out that hold, and neither must the
// worker's own stop.
func TestDrainEndsHeldHeartbeat(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		LeaseTTL:  time.Hour,
		Heartbeat: time.Hour,
		Runner:    func(size bench.Size) *core.Runner { return core.NewRunner(size) },
	})
	mux := http.NewServeMux()
	coord.Register(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := newHTTPServer("", mux)
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()

	tr := &beatSpy{Transport: cluster.Dial("http://"+ln.Addr().String(), nil, retry.Policy{Attempts: 1}), beats: make(chan struct{}, 1)}
	w := cluster.NewWorker(cluster.WorkerConfig{ID: "w1", Runner: func(bench.Size) *core.Runner { return nil }, Transport: tr})
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	select {
	case <-tr.beats:
	case <-time.After(10 * time.Second):
		t.Fatal("the worker sent no heartbeat")
	}
	time.Sleep(100 * time.Millisecond) // let the beat reach the hold

	start := time.Now()
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("shutdown took %v with a held heartbeat, want well under the hour's hold", d)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("serve: %v", err)
	}
	start = time.Now()
	stop()
	if err := <-done; err != nil {
		t.Errorf("worker: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("worker stop took %v, want well under the hour's hold", d)
	}
}

// beatSpy signals each heartbeat a worker sends.
type beatSpy struct {
	cluster.Transport
	beats chan struct{}
}

func (s *beatSpy) Heartbeat(ctx context.Context, req cluster.HeartbeatRequest) (cluster.HeartbeatResponse, error) {
	select {
	case s.beats <- struct{}{}:
	default:
	}
	return s.Transport.Heartbeat(ctx, req)
}
