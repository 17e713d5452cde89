package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"biaslab/internal/bench"
	"biaslab/internal/cluster"
	"biaslab/internal/core"
	"biaslab/internal/retry"
	"biaslab/internal/server"
)

// runnerCache returns a per-worker runner factory: each simulated worker
// process keeps its own compile/link caches, like a real fleet.
func runnerCache() func(bench.Size) *core.Runner {
	var mu sync.Mutex
	runners := map[bench.Size]*core.Runner{}
	return func(size bench.Size) *core.Runner {
		mu.Lock()
		defer mu.Unlock()
		r, ok := runners[size]
		if !ok {
			r = core.NewRunner(size)
			runners[size] = r
		}
		return r
	}
}

func newClusterServer(t *testing.T, cfg cluster.CoordinatorConfig) (*server.Server, *cluster.Coordinator) {
	t.Helper()
	srv, err := server.New(server.Config{DataDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	if cfg.Runner == nil {
		cfg.Runner = srv.Runner
	}
	coord := cluster.NewCoordinator(cfg)
	srv.SetCluster(coord, func() string { return coord.MetricsSnapshot().Render() })
	return srv, coord
}

// startWorker runs an in-process worker against a transport until the
// test ends (or the returned cancel is called).
func startWorker(t *testing.T, id string, tr cluster.Transport) context.CancelFunc {
	t.Helper()
	return startWorkerWith(t, cluster.WorkerConfig{ID: id, Slots: 2, Runner: runnerCache(), Transport: tr})
}

// startWorkerWith is startWorker for a fully specified worker.
func startWorkerWith(t *testing.T, cfg cluster.WorkerConfig) context.CancelFunc {
	t.Helper()
	cfg.Retry = retry.Policy{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond}
	w := cluster.NewWorker(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return cancel
}

// waitWorkers blocks until n workers have joined — submitting before the
// fleet registers would (correctly) degrade the job to local execution,
// which is not what these tests are probing.
func waitWorkers(t *testing.T, coord *cluster.Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if snap := coord.MetricsSnapshot(); snap.WorkersAlive >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("fleet of %d never assembled", n)
}

func waitJob(t *testing.T, srv *server.Server, id string) *server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(180 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := srv.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		switch st.State {
		case server.StateDone, server.StateFailed, server.StateCanceled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return nil
}

// localBytes computes the spec's result through the ordinary single-node
// path — the reference every cluster result must match byte for byte.
func localBytes(t *testing.T, spec server.JobSpec) []byte {
	t.Helper()
	canonical, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	size, _ := bench.ParseSize(canonical.Size)
	res, err := server.Execute(context.Background(), core.NewRunner(size), canonical, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := server.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func submitAndFetch(t *testing.T, srv *server.Server, spec server.JobSpec) []byte {
	t.Helper()
	sub, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, srv, sub.ID)
	if st.State != server.StateDone {
		t.Fatalf("job ended %s: %+v", st.State, st.Error)
	}
	raw, ok, err := srv.Result(sub.Key)
	if err != nil || !ok {
		t.Fatalf("result missing: ok=%v err=%v", ok, err)
	}
	return raw
}

// TestClusterByteIdentity is the tentpole's core guarantee: every
// shardable kind, fanned out over a two-worker fleet, stores exactly the
// bytes the single-node path produces.
func TestClusterByteIdentity(t *testing.T) {
	srv, coord := newClusterServer(t, cluster.CoordinatorConfig{
		LeaseTTL:  500 * time.Millisecond,
		Heartbeat: 20 * time.Millisecond,
	})
	startWorker(t, "w1", cluster.LocalTransport{C: coord})
	startWorker(t, "w2", cluster.LocalTransport{C: coord})
	waitWorkers(t, coord, 2)

	specs := []server.JobSpec{
		{Kind: server.KindSweepEnv, Size: "test", Bench: "hmmer", Machine: "p4", Step: 256},
		{Kind: server.KindSweepLink, Size: "test", Bench: "hmmer", Machine: "p4", Orders: 4},
		{Kind: server.KindSweepTenant, Size: "test", Bench: "sjeng", Machine: "core2"},
		{Kind: server.KindRandomize, Size: "test", Bench: "hmmer", Machine: "p4", N: 6},
		{Kind: server.KindRandomize, Size: "test", Bench: "sjeng", Machine: "core2", N: 6, CoRandom: true},
	}
	for i, spec := range specs {
		spec := spec
		t.Run(fmt.Sprintf("%d-%s", i, spec.Kind), func(t *testing.T) {
			raw := submitAndFetch(t, srv, spec)
			if local := localBytes(t, spec); !bytes.Equal(raw, local) {
				t.Errorf("cluster result differs from single-node result\ncluster: %s\nlocal:   %s", raw, local)
			}
		})
	}
	snap := coord.MetricsSnapshot()
	if snap.JobsSharded != uint64(len(specs)) {
		t.Errorf("JobsSharded = %d, want %d", snap.JobsSharded, len(specs))
	}
	if snap.PointsIngested == 0 {
		t.Error("no points flowed through the cluster")
	}
	if snap.MergeConflicts != 0 {
		t.Errorf("MergeConflicts = %d, want 0", snap.MergeConflicts)
	}
}

// chainSpec is the job of the one-slot tests: six one-point shards.
var chainSpec = server.JobSpec{Kind: server.KindSweepLink, Size: "test", Bench: "mcf", Machine: "core2", Orders: 4}

// oneSlotFleet starts a coordinator and one worker with one slot, "w1",
// planning one point per shard, at a heartbeat interval far longer than a
// shard of chainSpec. The interval is sized from the job itself, so it stays
// far longer under the race detector too. Coordinator and worker share
// one Runner, warmed by the sizing runs, so a timed job measures shard
// hand-off, not builds.
func oneSlotFleet(t *testing.T) (*server.Server, *cluster.Coordinator, time.Duration) {
	t.Helper()
	canonical, err := chainSpec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	runner := core.NewRunner(bench.SizeTest)
	var whole time.Duration
	for i := 0; i < 2; i++ {
		start := time.Now()
		if _, err := server.Execute(context.Background(), runner, canonical, nil, nil); err != nil {
			t.Fatal(err)
		}
		whole = time.Since(start)
	}
	interval := max(2*time.Second, 4*whole)
	runners := func(bench.Size) *core.Runner { return runner }
	srv, coord := newClusterServer(t, cluster.CoordinatorConfig{
		LeaseTTL:       4 * interval,
		Heartbeat:      interval,
		PointsPerShard: 1,
		Runner:         runners,
	})
	startWorkerWith(t, cluster.WorkerConfig{ID: "w1", Slots: 1, Runner: runners, Transport: cluster.LocalTransport{C: coord}})
	waitWorkers(t, coord, 1)
	return srv, coord, interval
}

// TestEarlyHeartbeatChainsShards: a worker beats as soon as a shard
// finishes, and the reply hands it the next one. One worker with one slot
// and a heartbeat interval far longer than a shard therefore runs a job of
// six one-point shards back to back: the first waits for a tick, the rest
// do not, so the job ends inside two intervals (waiting out a tick per
// shard would take six).
func TestEarlyHeartbeatChainsShards(t *testing.T) {
	srv, coord, interval := oneSlotFleet(t)

	start := time.Now()
	raw := submitAndFetch(t, srv, chainSpec)
	elapsed := time.Since(start)
	if local := localBytes(t, chainSpec); !bytes.Equal(raw, local) {
		t.Error("cluster result differs from single-node result")
	}
	snap := coord.MetricsSnapshot()
	if snap.ShardsPlanned < 4 {
		t.Fatalf("planned %d shards; the case needs four or more", snap.ShardsPlanned)
	}
	t.Logf("%d shards in %v at a %v heartbeat interval (%d heartbeats)", snap.ShardsPlanned, elapsed.Round(time.Millisecond), interval, snap.Heartbeats)
	if elapsed >= 2*interval {
		t.Errorf("job of %d shards took %v, want under two heartbeat intervals (%v)", snap.ShardsPlanned, elapsed, 2*interval)
	}
}

// flakyTransport simulates a worker crash without fault-injection tags: a
// fixed number of heartbeats succeed, then every protocol call fails
// forever — the worker process is effectively gone, without a graceful
// leave, exactly like a kill.
type flakyTransport struct {
	inner  cluster.Transport
	mu     sync.Mutex
	beats  int
	budget int
}

func newFlakyTransport(inner cluster.Transport, budget int) *flakyTransport {
	return &flakyTransport{inner: inner, budget: budget}
}

func (f *flakyTransport) dead() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.beats++
	return f.beats > f.budget
}

func (f *flakyTransport) Join(ctx context.Context, req cluster.JoinRequest) (cluster.JoinResponse, error) {
	return f.inner.Join(ctx, req)
}

func (f *flakyTransport) Heartbeat(ctx context.Context, req cluster.HeartbeatRequest) (cluster.HeartbeatResponse, error) {
	if f.dead() {
		return cluster.HeartbeatResponse{}, errors.New("connection refused (simulated crash)")
	}
	return f.inner.Heartbeat(ctx, req)
}

func (f *flakyTransport) Leave(ctx context.Context, req cluster.LeaveRequest) error {
	return errors.New("connection refused (simulated crash)")
}

// TestClusterWorkerCrashRecovers is the chaos acceptance test: kill a
// worker mid-sweep (its heartbeats stop cold, no leave), and the merged
// result must still be byte-identical to a single-node run, with the
// coordinator's metrics showing the failure machinery engaged — leases
// expired and shards retried.
func TestClusterWorkerCrashRecovers(t *testing.T) {
	srv, coord := newClusterServer(t, cluster.CoordinatorConfig{
		LeaseTTL:   250 * time.Millisecond,
		Heartbeat:  25 * time.Millisecond,
		StealAfter: time.Hour, // force recovery through lease expiry, not stealing
		Backoff:    retry.Policy{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond},
	})
	// w1 crashes after three heartbeats — mid-sweep, holding leases.
	startWorker(t, "w1", newFlakyTransport(cluster.LocalTransport{C: coord}, 3))
	startWorker(t, "w2", cluster.LocalTransport{C: coord})
	waitWorkers(t, coord, 2)

	spec := server.JobSpec{Kind: server.KindSweepEnv, Size: "test", Bench: "hmmer", Machine: "p4", Step: 256}
	raw := submitAndFetch(t, srv, spec)
	if local := localBytes(t, spec); !bytes.Equal(raw, local) {
		t.Error("result after worker crash differs from single-node result")
	}
	snap := coord.MetricsSnapshot()
	if snap.LeasesExpired == 0 {
		t.Error("LeasesExpired = 0: the crashed worker's leases never expired")
	}
	if snap.ShardsRetried == 0 {
		t.Error("ShardsRetried = 0: no shard was requeued after the crash")
	}
	if snap.MergeConflicts != 0 {
		t.Errorf("MergeConflicts = %d, want 0", snap.MergeConflicts)
	}
}

// TestClusterFleetDiesDegradesToLocal: every worker dies mid-job; the
// coordinator finishes the remaining shards inline through its own
// runner, and the result is still byte-identical.
func TestClusterFleetDiesDegradesToLocal(t *testing.T) {
	srv, coord := newClusterServer(t, cluster.CoordinatorConfig{
		LeaseTTL:  150 * time.Millisecond,
		Heartbeat: 25 * time.Millisecond,
		Backoff:   retry.Policy{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond},
	})
	startWorker(t, "w1", newFlakyTransport(cluster.LocalTransport{C: coord}, 2))
	waitWorkers(t, coord, 1)

	spec := server.JobSpec{Kind: server.KindSweepEnv, Size: "test", Bench: "hmmer", Machine: "p4", Step: 256}
	raw := submitAndFetch(t, srv, spec)
	if local := localBytes(t, spec); !bytes.Equal(raw, local) {
		t.Error("degraded result differs from single-node result")
	}
	if snap := coord.MetricsSnapshot(); snap.ShardsLocal == 0 {
		t.Error("ShardsLocal = 0: the coordinator never took over")
	}
}

// TestClusterNoWorkersRunsLocally: with an attached coordinator but no
// fleet, the server's ordinary local path runs the job — same bytes, one
// degraded-jobs tick.
func TestClusterNoWorkersRunsLocally(t *testing.T) {
	srv, coord := newClusterServer(t, cluster.CoordinatorConfig{
		LeaseTTL:  200 * time.Millisecond,
		Heartbeat: 20 * time.Millisecond,
	})
	spec := server.JobSpec{Kind: server.KindSweepEnv, Size: "test", Bench: "hmmer", Machine: "p4", Step: 512}
	raw := submitAndFetch(t, srv, spec)
	if local := localBytes(t, spec); !bytes.Equal(raw, local) {
		t.Error("locally degraded result differs from single-node result")
	}
	if snap := coord.MetricsSnapshot(); snap.JobsDegraded != 1 {
		t.Errorf("JobsDegraded = %d, want 1", snap.JobsDegraded)
	}
}

// TestClusterHTTPTransport drives the protocol over real HTTP: the
// coordinator's handlers on one side, Dial's retrying client on the
// other.
func TestClusterHTTPTransport(t *testing.T) {
	srv, coord := newClusterServer(t, cluster.CoordinatorConfig{
		LeaseTTL:  500 * time.Millisecond,
		Heartbeat: 20 * time.Millisecond,
	})
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	coord.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	tr := cluster.Dial(ts.URL, nil, retry.Policy{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond})
	startWorker(t, "w-http", tr)
	waitWorkers(t, coord, 1)

	spec := server.JobSpec{Kind: server.KindSweepEnv, Size: "test", Bench: "hmmer", Machine: "p4", Step: 512}
	raw := submitAndFetch(t, srv, spec)
	if local := localBytes(t, spec); !bytes.Equal(raw, local) {
		t.Error("HTTP-transport result differs from single-node result")
	}
	if snap := coord.MetricsSnapshot(); snap.PointsIngested == 0 {
		t.Error("no points delivered over HTTP")
	}
}

// TestJoinReadinessProbe: a worker whose /readyz answers 503 (draining)
// is refused membership — the readiness split's cluster consumer.
func TestJoinReadinessProbe(t *testing.T) {
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer draining.Close()
	ready := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	}))
	defer ready.Close()

	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Runner:     runnerCache(),
		ProbeReady: cluster.ProbeReadyHTTP(nil),
	})
	if _, err := coord.Join(cluster.JoinRequest{Worker: "draining", Addr: draining.URL}); !errors.Is(err, cluster.ErrNotReady) {
		t.Fatalf("draining worker join: got %v, want ErrNotReady", err)
	}
	if _, err := coord.Join(cluster.JoinRequest{Worker: "ready", Addr: ready.URL}); err != nil {
		t.Fatalf("ready worker join: %v", err)
	}
}

// beatSignal is a transport that signals each heartbeat its worker sends.
type beatSignal struct {
	cluster.Transport
	beats chan struct{}
}

func (b *beatSignal) Heartbeat(ctx context.Context, req cluster.HeartbeatRequest) (cluster.HeartbeatResponse, error) {
	select {
	case b.beats <- struct{}{}:
	default:
	}
	return b.Transport.Heartbeat(ctx, req)
}

// TestIdleFleetLongPolls: at an hour's heartbeat interval neither the
// worker's tick nor the coordinator's fires during the test, so a job
// submitted to an idle fleet reaches it only through the worker's held
// beat. The job completes, byte-identical to a local run, over the
// in-process transport and over HTTP; then stopping the worker, whose
// next beat is held again, returns at once.
func TestIdleFleetLongPolls(t *testing.T) {
	for _, via := range []string{"local", "http"} {
		t.Run(via, func(t *testing.T) {
			srv, coord := newClusterServer(t, cluster.CoordinatorConfig{LeaseTTL: time.Hour, Heartbeat: time.Hour})
			var inner cluster.Transport = cluster.LocalTransport{C: coord}
			if via == "http" {
				mux := http.NewServeMux()
				coord.Register(mux)
				ts := httptest.NewServer(mux)
				t.Cleanup(ts.Close) // after the worker stops: Close waits for open requests
				inner = cluster.Dial(ts.URL, nil, retry.Policy{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond})
			}
			tr := &beatSignal{Transport: inner, beats: make(chan struct{}, 1)}
			w := cluster.NewWorker(cluster.WorkerConfig{ID: "w1", Slots: 2, Runner: runnerCache(), Transport: tr})
			ctx, stop := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- w.Run(ctx) }()
			t.Cleanup(func() {
				stop()
				<-done
			})
			waitWorkers(t, coord, 1)
			settle := func() {
				select {
				case <-tr.beats:
				case <-time.After(10 * time.Second):
					t.Fatal("the idle worker sent no heartbeat")
				}
				time.Sleep(100 * time.Millisecond) // let the beat reach its hold
			}
			settle()

			spec := server.JobSpec{Kind: server.KindSweepEnv, Size: "test", Bench: "hmmer", Machine: "p4", Step: 512}
			raw := submitAndFetch(t, srv, spec)
			if local := localBytes(t, spec); !bytes.Equal(raw, local) {
				t.Error("long-polled result differs from single-node result")
			}
			if snap := coord.MetricsSnapshot(); snap.JobsSharded != 1 || snap.PointsIngested == 0 || snap.ShardsLocal != 0 {
				t.Errorf("sharded %d, ingested %d points, %d shards run locally; want 1 job run by the fleet",
					snap.JobsSharded, snap.PointsIngested, snap.ShardsLocal)
			}

			settle()
			start := time.Now()
			stop()
			if err := <-done; err != nil {
				t.Errorf("worker: %v", err)
			}
			done <- nil // for the cleanup
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("stopping a worker with a held beat took %v", d)
			}
		})
	}
}

// noHold answers every beat at once, standing in for a coordinator that
// does not hold beats: it drops wait_ms on the way in.
type noHold struct {
	cluster.Transport
	beats atomic.Int64
}

func (n *noHold) Heartbeat(ctx context.Context, req cluster.HeartbeatRequest) (cluster.HeartbeatResponse, error) {
	n.beats.Add(1)
	req.WaitMs = 0
	return n.Transport.Heartbeat(ctx, req)
}

// TestIdleWorkerNeverBeatsInALoop: an idle beat answered empty at once was
// not held, so the worker's next beat waits for its tick. Against a
// coordinator that never holds, an idle worker beats about once per
// interval, not as fast as the coordinator answers.
func TestIdleWorkerNeverBeatsInALoop(t *testing.T) {
	_, coord := newClusterServer(t, cluster.CoordinatorConfig{LeaseTTL: time.Second, Heartbeat: 50 * time.Millisecond})
	tr := &noHold{Transport: cluster.LocalTransport{C: coord}}
	startWorker(t, "w1", tr)
	waitWorkers(t, coord, 1)
	time.Sleep(500 * time.Millisecond)
	if n := tr.beats.Load(); n > 40 {
		t.Errorf("an idle worker sent %d beats in 0.5 s at a 50 ms interval", n)
	}
}
