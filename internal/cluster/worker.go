package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"time"

	"biaslab/internal/bench"
	"biaslab/internal/core"
	"biaslab/internal/faultinject"
	"biaslab/internal/retry"
)

// WorkerConfig configures a cluster worker.
type WorkerConfig struct {
	// ID is the worker's stable identity (default is not supplied here:
	// cmd/biaslabd composes hostname-pid).
	ID string
	// Addr is this worker daemon's base URL, advertised to the
	// coordinator for the join-time readiness probe. Optional.
	Addr string
	// Slots is how many shards to execute concurrently (default 2).
	Slots int
	// Runner supplies the measurement runner for a workload size —
	// normally server.(*Server).Runner, so shard execution shares the
	// daemon's compile/link caches. Required.
	Runner func(size bench.Size) *core.Runner
	// Transport performs the protocol calls (HTTP in production,
	// in-process in tests).
	Transport Transport
	// Retry paces join retries and transient transport failures.
	Retry retry.Policy
}

// Transport is the worker's view of the coordinator: the three protocol
// verbs. Implemented over HTTP by Dial, and directly by a *Coordinator
// for in-process tests (see LocalTransport).
type Transport interface {
	Join(ctx context.Context, req JoinRequest) (JoinResponse, error)
	Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error)
	Leave(ctx context.Context, req LeaveRequest) error
}

// LocalTransport adapts a Coordinator into a Transport for in-process
// fleets — the chaos tests run coordinator and workers in one process so
// the race detector can see across the protocol boundary.
type LocalTransport struct{ C *Coordinator }

func (t LocalTransport) Join(ctx context.Context, req JoinRequest) (JoinResponse, error) {
	return t.C.Join(req)
}

func (t LocalTransport) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	return t.C.Heartbeat(ctx, req)
}

func (t LocalTransport) Leave(ctx context.Context, req LeaveRequest) error {
	t.C.Leave(req)
	return nil
}

// Worker executes shard assignments for a coordinator. Run drives the
// join → heartbeat → execute loop until the context is cancelled (a
// graceful leave) or a kill fault fires (a simulated crash).
//
// A worker beats on every tick of the coordinator's heartbeat interval,
// which renews its leases, and also as soon as one of its shards
// finishes: that beat delivers the shard at once and its reply hands the
// freed slot the next queued shard, so a job's shards follow each other
// without waiting out the interval. An idle worker long-polls instead:
// right after joining, and after every beat that leaves it idle, it sends
// a beat that carries nothing and asks the coordinator to hold it for one
// interval (WaitMs), so a newly queued shard reaches it at once.
//
// Delivery is at-least-once: completed points and shard results stay in
// the outbox until a heartbeat round-trip succeeds, so a heartbeat lost
// to the network (or to the "heartbeat/<id>" fault site) delays delivery
// but never loses it. The coordinator deduplicates.
type Worker struct {
	cfg WorkerConfig

	mu      sync.Mutex
	epoch   int64
	held    map[string]*shardRun
	outbox  []PointRecord
	doneBox []ShardResult
	// unheld counts the beats in a row that asked to wait but were not
	// held (see beat).
	unheld int
	// finished holds one pending "a shard finished" signal for Run.
	finished chan struct{}
}

// shardRun is one executing assignment.
type shardRun struct {
	cancel context.CancelFunc
	done   chan struct{}
}

// NewWorker builds a worker; cfg.Runner and cfg.Transport are required.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Slots <= 0 {
		cfg.Slots = 2
	}
	if cfg.Runner == nil || cfg.Transport == nil {
		panic("cluster: WorkerConfig.Runner and Transport are required")
	}
	return &Worker{cfg: cfg, held: map[string]*shardRun{}, finished: make(chan struct{}, 1)}
}

// errKilled distinguishes a simulated crash from a graceful shutdown.
var errKilled = errors.New("cluster: worker killed by fault injection")

// Run joins the coordinator and processes assignments until ctx is
// cancelled. It returns nil on graceful shutdown (after a best-effort
// leave) and errKilled when the kill fault site fires.
func (w *Worker) Run(ctx context.Context) error {
	join, err := w.join(ctx)
	if err != nil {
		return err
	}
	interval := time.Duration(join.HeartbeatMs) * time.Millisecond
	if interval <= 0 {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	now := true // a joined worker holds nothing, so it long-polls at once
	for {
		if !now {
			select {
			case <-ctx.Done():
			case <-tick.C:
			case <-w.finished:
			}
		}
		now = false
		if ctx.Err() != nil {
			w.shutdown()
			w.cfg.Transport.Leave(context.Background(), LeaveRequest{Worker: w.cfg.ID, Epoch: w.epochNow()})
			return nil
		}
		// Fault site: a fired kill is a crash — no leave, no cleanup,
		// executors abandoned. The coordinator must recover on its own.
		if err := faultinject.Check("cluster", "kill/"+w.cfg.ID); err != nil {
			w.shutdown()
			return errKilled
		}
		// Fault site: a fired heartbeat fault drops this beat; the
		// outbox keeps everything for the next one.
		if err := faultinject.Check("cluster", "heartbeat/"+w.cfg.ID); err != nil {
			continue
		}
		// After a failed beat the next one waits for the tick.
		if now, err = w.beat(ctx, interval); errors.Is(err, ErrUnknownWorker) {
			// Dropped by the coordinator (missed leases, or it
			// restarted). Cancel everything and start over; the
			// outbox survives so finished work still gets delivered.
			w.cancelAll()
			if _, err = w.join(ctx); err != nil {
				return err
			}
			now = true
		}
	}
}

// join registers with retry until it succeeds or ctx ends.
func (w *Worker) join(ctx context.Context) (JoinResponse, error) {
	var resp JoinResponse
	err := w.cfg.Retry.Do(ctx, "join/"+w.cfg.ID, func(error) bool { return true }, func() error {
		var err error
		resp, err = w.cfg.Transport.Join(ctx, JoinRequest{Worker: w.cfg.ID, Addr: w.cfg.Addr, Slots: w.cfg.Slots})
		return err
	})
	if err != nil {
		return JoinResponse{}, err
	}
	w.mu.Lock()
	w.epoch = resp.Epoch
	w.mu.Unlock()
	return resp, nil
}

func (w *Worker) epochNow() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

// beat performs one heartbeat round trip and applies the response. A
// beat that carries nothing asks the coordinator to hold it for up to
// wait. It reports whether the next beat should go at once: the worker is
// left idle (nothing running, nothing to deliver), unless its last two
// beats asked to wait and came back empty well inside their wait. Such a
// beat was not held: another worker took the shard first (the next beat
// is then held as usual), or the coordinator does not hold beats. After
// two in a row the next beat waits for the tick, so an idle worker never
// beats in a loop.
func (w *Worker) beat(ctx context.Context, wait time.Duration) (bool, error) {
	w.mu.Lock()
	req := HeartbeatRequest{
		Worker: w.cfg.ID,
		Epoch:  w.epoch,
		Points: append([]PointRecord(nil), w.outbox...),
		Done:   append([]ShardResult(nil), w.doneBox...),
	}
	for id := range w.held { //determlint:allow lease-renewal set; the coordinator treats Held as a set
		req.Held = append(req.Held, id)
	}
	if len(req.Held)+len(req.Points)+len(req.Done) == 0 {
		req.WaitMs = wait.Milliseconds()
	}
	sentPoints, sentDone := len(w.outbox), len(w.doneBox)
	w.mu.Unlock()

	sent := time.Now() //determlint:allow protocol pacing; never reaches a measurement
	resp, err := w.cfg.Transport.Heartbeat(ctx, req)
	if err != nil {
		return false, err
	}
	waited := req.WaitMs == 0 || len(resp.Assignments) > 0 || time.Since(sent) >= wait/2
	w.mu.Lock()
	// A successful round trip acknowledges exactly what was sent;
	// anything appended since stays queued.
	w.outbox = w.outbox[sentPoints:]
	w.doneBox = w.doneBox[sentDone:]
	for _, id := range resp.Revoked {
		if run, ok := w.held[id]; ok {
			run.cancel()
			delete(w.held, id)
		}
	}
	w.mu.Unlock()
	for _, a := range resp.Assignments {
		w.start(ctx, a)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if waited {
		w.unheld = 0
	} else {
		w.unheld++
	}
	return w.unheld < 2 && len(w.held)+len(w.outbox)+len(w.doneBox) == 0, nil
}

// start launches one assignment's executor goroutine.
func (w *Worker) start(ctx context.Context, a ShardAssignment) {
	size, err := bench.ParseSize(a.Spec.Size)
	if err != nil {
		w.mu.Lock()
		w.doneBox = append(w.doneBox, ShardResult{Job: a.Job, Shard: a.Shard, Error: err.Error()})
		w.mu.Unlock()
		return
	}
	runCtx, cancel := context.WithCancel(ctx)
	run := &shardRun{cancel: cancel, done: make(chan struct{})}
	w.mu.Lock()
	if _, dup := w.held[a.Shard]; dup {
		w.mu.Unlock()
		cancel()
		return
	}
	w.held[a.Shard] = run
	w.mu.Unlock()
	go func() {
		defer close(run.done)
		defer cancel()
		err := ExecuteShard(runCtx, w.cfg.Runner(size), a.Spec, a.Shard, a.Indices, func(index int, key string, val json.RawMessage) error {
			w.mu.Lock()
			w.outbox = append(w.outbox, PointRecord{Job: a.Job, Shard: a.Shard, Index: index, Key: key, Val: val})
			w.mu.Unlock()
			return nil
		})
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.held[a.Shard] == run {
			delete(w.held, a.Shard)
		}
		if runCtx.Err() != nil {
			return // revoked or shutting down: report nothing
		}
		res := ShardResult{Job: a.Job, Shard: a.Shard}
		if err != nil {
			res.Error = err.Error()
		}
		w.doneBox = append(w.doneBox, res)
		// Ask Run for a beat now. The report is queued first, so a
		// signal already pending covers it.
		select {
		case w.finished <- struct{}{}:
		default:
		}
	}()
}

// cancelAll revokes every running executor (rejoin path).
func (w *Worker) cancelAll() {
	w.mu.Lock()
	runs := make([]*shardRun, 0, len(w.held))
	for id, run := range w.held { //determlint:allow cancellation; per-run cancels are order-independent
		runs = append(runs, run)
		delete(w.held, id)
	}
	w.mu.Unlock()
	for _, run := range runs {
		run.cancel()
		<-run.done
	}
}

// shutdown cancels executors and waits for them.
func (w *Worker) shutdown() {
	w.cancelAll()
}
