package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"biaslab/internal/audit"
	"biaslab/internal/bench"
	"biaslab/internal/cluster"
	"biaslab/internal/core"
	"biaslab/internal/journal"
	"biaslab/internal/retry"
	"biaslab/internal/server"
	"biaslab/internal/server/client"
)

// fleet is biaslabd wired the way cmd/biaslabd wires it — server.New, an
// audit.New auditor and a cluster coordinator on loopback — plus two
// workers with one slot each that join over HTTP through cluster.Dial. All
// of it runs in the benchmark's one process.
type fleet struct {
	// transport carries every HTTP call to the daemon: the workers', the
	// coordinator's probes and the clients'. Closing its idle connections
	// before shutdown lets the listener drain at once instead of waiting
	// out connections that were dialled but never used.
	transport *http.Transport
	srv       *server.Server
	coord     *cluster.Coordinator
	httpSrv   *http.Server
	url       string
	stops     []context.CancelFunc
	dones     []chan error
	execs     []*workerExec
}

// Shipped coordinator defaults (cmd/biaslabd -lease-ttl, -heartbeat).
const (
	fleetLeaseTTL = 10 * time.Second
	fleetWorkers  = 2
)

// startFleet starts the daemon and its workers and returns once both
// workers have joined. heartbeat 0 keeps the shipped default (TTL/4);
// tests shorten it. A non-nil rec installs the tracing decorators.
func startFleet(dataDir string, heartbeat time.Duration, rec *recorder, obs *observer) (*fleet, error) {
	srv, err := server.New(server.Config{DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	// Count the daemon's simulated instructions, as every other workload
	// does; the server's own hook keeps running.
	local := srv.Runner(bench.SizeTest)
	serverHook := local.OnMeasure
	local.OnMeasure = func(m *core.Measurement) {
		obs.observe("", m)
		serverHook(m)
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		LeaseTTL:   fleetLeaseTTL,
		Heartbeat:  heartbeat,
		Runner:     srv.Runner,
		ProbeReady: cluster.ProbeReadyHTTP(&http.Client{Timeout: 5 * time.Second, Transport: transport}),
	})
	var sharder server.ShardRunner = coord
	var auditor server.SpecAuditor = audit.New(srv.Runner)
	if rec != nil {
		sharder = &tracedSharder{inner: coord, rec: rec}
		auditor = &tracedAuditor{inner: auditor, rec: rec}
	}
	srv.SetCluster(sharder, func() string { return coord.MetricsSnapshot().Render() })
	srv.SetAuditor(auditor)
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	coord.Register(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	f := &fleet{transport: transport, srv: srv, coord: coord, httpSrv: &http.Server{Handler: mux}, url: "http://" + ln.Addr().String()}
	served := make(chan error, 1)
	go func() { served <- f.httpSrv.Serve(ln) }()
	f.dones = append(f.dones, served)

	for i := 0; i < fleetWorkers; i++ {
		exec := &workerExec{rec: rec, obs: obs, runners: map[bench.Size]*core.Runner{}}
		tr := &fleetTransport{
			inner:  cluster.Dial(f.url, &http.Client{Timeout: 30 * time.Second, Transport: transport}, retry.Policy{}),
			rec:    rec,
			joined: make(chan struct{}),
		}
		w := cluster.NewWorker(cluster.WorkerConfig{
			ID:        fmt.Sprintf("perf-worker-%d", i),
			Slots:     1,
			Runner:    exec.runner,
			Transport: tr,
		})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- w.Run(ctx) }()
		f.stops = append(f.stops, cancel)
		f.dones = append(f.dones, done)
		f.execs = append(f.execs, exec)
		select {
		case <-tr.joined:
		case <-time.After(30 * time.Second):
			return nil, errors.Join(fmt.Errorf("fleet worker %d did not join within 30s", i), f.stop())
		}
	}
	return f, nil
}

// stop drains the fleet as cmd/biaslabd does — workers leave first, then
// the listener, then the engine — and waits for every goroutine it started.
func (f *fleet) stop() error {
	for _, cancel := range f.stops {
		cancel()
	}
	var errs []error
	for _, done := range f.dones[1:] {
		if err := <-done; err != nil {
			errs = append(errs, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f.transport.CloseIdleConnections()
	errs = append(errs, f.httpSrv.Shutdown(ctx))
	if err := <-f.dones[0]; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	errs = append(errs, f.srv.Shutdown(ctx))
	for _, e := range f.execs {
		e.flush()
	}
	return errors.Join(errs...)
}

// tracedAuditor times every audit the daemon runs, cached submissions
// included.
type tracedAuditor struct {
	inner server.SpecAuditor
	rec   *recorder
}

func (t *tracedAuditor) AuditSpec(spec server.JobSpec) ([]server.AuditFinding, error) {
	s := t.rec.begin("audit", scope{op: -1})
	defer s.end()
	return t.inner.AuditSpec(spec)
}

// tracedSharder times the coordinator's sharded runs and the wait for a
// job's first fresh point.
type tracedSharder struct {
	inner server.ShardRunner
	rec   *recorder
}

func (t *tracedSharder) RunSharded(ctx context.Context, jobKey string, spec server.JobSpec, findings []server.AuditFinding, jn *journal.Journal, onPoint func(string, bool), onTotal func(int)) error {
	s := t.rec.begin("cluster", scope{op: -1})
	defer s.end()
	start := time.Now()
	var once sync.Once
	wrapped := func(key string, replayed bool) {
		if !replayed {
			once.Do(func() {
				t.rec.add("cluster.first_point_ns", float64(time.Since(start).Nanoseconds()))
				t.rec.add("cluster.first_points", 1)
			})
		}
		onPoint(key, replayed)
	}
	return t.inner.RunSharded(ctx, jobKey, spec, findings, jn, wrapped, onTotal)
}

// fleetTransport is a worker's coordinator transport. It reports the
// worker's first completed join, and with a recorder it times every
// protocol call.
type fleetTransport struct {
	inner  cluster.Transport
	rec    *recorder
	joined chan struct{}
	once   sync.Once
}

func (t *fleetTransport) Join(ctx context.Context, req cluster.JoinRequest) (cluster.JoinResponse, error) {
	s := t.rec.begin("cluster", scope{op: -1})
	resp, err := t.inner.Join(ctx, req)
	s.end()
	if err == nil {
		t.once.Do(func() { close(t.joined) })
	}
	return resp, err
}

func (t *fleetTransport) Heartbeat(ctx context.Context, req cluster.HeartbeatRequest) (cluster.HeartbeatResponse, error) {
	s := t.rec.begin("cluster", scope{op: -1})
	resp, err := t.inner.Heartbeat(ctx, req)
	d := s.end()
	t.rec.add("cluster.heartbeat_ns", float64(d.Nanoseconds()))
	t.rec.add("cluster.beats", 1)
	t.rec.add("cluster.points_delivered", float64(len(req.Points)))
	return resp, err
}

func (t *fleetTransport) Leave(ctx context.Context, req cluster.LeaveRequest) error {
	s := t.rec.begin("cluster", scope{op: -1})
	defer s.end()
	return t.inner.Leave(ctx, req)
}

// workerExec supplies a worker's Runners and, when tracing, turns each
// shard into a core.execute span: the worker asks for a Runner as a shard
// starts, and the shard's last measurement ends it.
type workerExec struct {
	rec *recorder
	obs *observer

	mu       sync.Mutex
	runners  map[bench.Size]*core.Runner
	open     bool
	start    time.Time
	lastMeas time.Time
}

func (e *workerExec) runner(size bench.Size) *core.Runner {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.flushLocked()
	e.open, e.start, e.lastMeas = true, time.Now(), time.Time{}
	r, ok := e.runners[size]
	if !ok {
		r = core.NewRunner(size)
		r.OnMeasure = func(m *core.Measurement) {
			e.obs.observe("", m)
			e.mu.Lock()
			e.lastMeas = time.Now()
			e.mu.Unlock()
		}
		e.runners[size] = r
	}
	return r
}

func (e *workerExec) flushLocked() {
	if e.open && !e.lastMeas.IsZero() {
		e.rec.record("core.execute", scope{op: -1}, e.start, e.lastMeas)
	}
	e.open = false
}

func (e *workerExec) flush() {
	e.mu.Lock()
	e.flushLocked()
	e.mu.Unlock()
}

// serviceClient is one closed-loop client of the daemon.
type serviceClient struct {
	cl   *client.Client
	http *http.Client
	url  string
	rec  *recorder
}

func (c *serviceClient) fetch(ctx context.Context, key, format string, sc scope) (string, error) {
	s := c.rec.begin("client", sc)
	defer s.end()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/v1/results/"+key+"?format="+format, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s result: HTTP %d", format, resp.StatusCode)
	}
	return string(body), nil
}

// roundTrip submits one spec, waits for its job and fetches the result as
// json, text and csv, checking that the three agree with the canonical
// encoding and renderers.
func (c *serviceClient) roundTrip(ctx context.Context, o op) opResult {
	s := c.rec.begin("op", scope{op: o.ID})
	defer s.end()
	sc := s.scope()
	var key string
	if err := c.rec.timed("server.key", sc, func() (err error) {
		key, err = server.Key(o.Spec)
		return err
	}); err != nil {
		return opResult{err: err}
	}
	var sub *server.SubmitResponse
	if err := c.rec.timed("client", sc, func() (err error) {
		sub, err = c.cl.Submit(ctx, o.Spec)
		return err
	}); err != nil {
		return opResult{err: err}
	}
	if sub.Key != key {
		return opResult{err: fmt.Errorf("daemon keyed the spec %s, client computed %s", sub.Key, key)}
	}
	if sub.Cached != o.Hit || sub.InFlight {
		return opResult{err: fmt.Errorf("submission cached=%v in_flight=%v, want cached=%v", sub.Cached, sub.InFlight, o.Hit)}
	}
	var st *server.JobStatus
	if err := c.rec.timed("client", sc, func() (err error) {
		st, err = c.cl.Wait(ctx, sub.ID)
		return err
	}); err != nil {
		return opResult{err: err}
	}
	if st.State != server.StateDone {
		msg := string(st.State)
		if st.Error != nil {
			msg += ": " + st.Error.Message
		}
		return opResult{err: fmt.Errorf("job %s %s", sub.ID, msg)}
	}
	var res *server.Result
	var raw []byte
	if err := c.rec.timed("client", sc, func() (err error) {
		res, raw, err = c.cl.Result(ctx, sub.Key)
		return err
	}); err != nil {
		return opResult{err: err}
	}
	text, err := c.fetch(ctx, sub.Key, "text", sc)
	if err != nil {
		return opResult{err: err}
	}
	csv, err := c.fetch(ctx, sub.Key, "csv", sc)
	if err != nil {
		return opResult{err: err}
	}
	if err := c.rec.timed("server.render", sc, func() error {
		enc, err := server.EncodeResult(res)
		if err != nil {
			return err
		}
		wantText, err := server.RenderText(res)
		if err != nil {
			return err
		}
		wantCSV, err := server.RenderCSV(res)
		if err != nil {
			return err
		}
		if string(enc) != string(raw) || wantText != text || wantCSV != csv {
			return errors.New("json, text and csv results disagree with the canonical renderers")
		}
		return nil
	}); err != nil {
		return opResult{err: err}
	}
	return opResult{raw: raw, points: resultPoints(res), hit: sub.Cached}
}

// runService drives the two closed-loop clients over their op streams and
// returns the results in op order and the wall time of the timed phase.
func runService(ctx context.Context, f *fleet, ops []op, rec *recorder) ([]opResult, time.Duration, []float64) {
	results := make([]opResult, len(ops))
	walls := make([]float64, 2)
	var wg sync.WaitGroup
	start := time.Now()
	for id := 0; id < 2; id++ {
		hc := &http.Client{Transport: f.transport}
		cl := client.New(f.url)
		cl.HTTP = hc
		c := &serviceClient{cl: cl, http: hc, url: f.url, rec: rec}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A hit must return the bytes the client's own fresh run fetched.
			first := map[string][]byte{}
			for i, o := range ops {
				if o.Client != id {
					continue
				}
				t0 := time.Now()
				r := c.roundTrip(ctx, o)
				r.latency = time.Since(t0)
				if r.err == nil {
					key, _ := server.Key(o.Spec)
					if prev, ok := first[key]; ok && string(prev) != string(r.raw) {
						r.err = errors.New("a store hit returned different bytes than the fresh result")
					} else if !ok {
						first[key] = r.raw
					}
				}
				if r.err != nil {
					r.err = fmt.Errorf("op %d (%s): %w", o.ID, describe(o), r.err)
				}
				results[i] = r
			}
			walls[id] = time.Since(start).Seconds()
		}()
	}
	wg.Wait()
	return results, time.Since(start), walls
}

// verifyLocally re-executes every fresh service op on a local Runner: the
// daemon's and the fleet's bytes must equal a local run's.
func verifyLocally(ctx context.Context, ops []op, results []opResult) []string {
	var problems []string
	for i, o := range ops {
		if o.Hit || results[i].err != nil {
			continue
		}
		size, err := bench.ParseSize(o.Spec.Size)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		res, err := server.Execute(ctx, core.NewRunner(size), o.Spec, nil, nil)
		if err != nil {
			problems = append(problems, fmt.Sprintf("op %d: local execution: %v", o.ID, err))
			continue
		}
		raw, err := server.EncodeResult(res)
		if err != nil || string(raw) != string(results[i].raw) {
			problems = append(problems, fmt.Sprintf("op %d (%s): daemon result differs from local execution", o.ID, describe(o)))
		}
	}
	return problems
}

// fleetCounters copies the daemon's and the coordinator's counters into rec.
func (f *fleet) fleetCounters(rec *recorder) {
	s := f.srv.MetricsSnapshot()
	if n := s.CacheHits + s.CacheMisses; n > 0 {
		rec.set("server.hit_ratio", float64(s.CacheHits)/float64(n))
	}
	rec.set("server.points_measured", float64(s.PointsMeasured))
	rec.set("server.points_replayed", float64(s.PointsReplayed))
	c := f.coord.MetricsSnapshot()
	rec.set("cluster.heartbeats", float64(c.Heartbeats))
	if c.PointsIngested > 0 {
		rec.set("cluster.duplicate_ratio", float64(c.PointsDuplicate)/float64(c.PointsIngested))
	}
	rec.set("cluster.requeues", float64(c.ShardsRetried))
	rec.set("cluster.steals", float64(c.ShardsStolen))
}
