package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"biaslab/internal/bench"
	"biaslab/internal/core"
	"biaslab/internal/journal"
)

// Config configures a Server.
type Config struct {
	// DataDir holds the result store (results.jsonl) and per-job
	// checkpoint journals (jobs/<key>.jsonl). One daemon owns a DataDir at
	// a time.
	DataDir string
	// Workers bounds concurrent job execution (default 2). Each job's
	// sweep additionally parallelizes internally through the Runner.
	Workers int
	// QueueCap bounds the number of queued jobs (default 256); submissions
	// beyond it are rejected with ErrQueueFull rather than buffered
	// without limit.
	QueueCap int
}

// Errors surfaced to the HTTP layer.
var (
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("server: draining, not accepting jobs")
	// ErrQueueFull rejects submissions when the job queue is at capacity.
	ErrQueueFull = errors.New("server: job queue full")
)

// ErrNotSharded is returned by a ShardRunner that declines a job — most
// importantly when zero workers are alive — telling the server to degrade
// gracefully to ordinary local execution.
var ErrNotSharded = errors.New("server: job not sharded, execute locally")

// ShardRunner distributes a shardable job's pending points across a
// cluster of worker daemons. It must journal every completed point into jn
// under the job's single-node checkpoint keys (announcing each through
// onPoint exactly once: replayed for points already in jn, fresh for
// points delivered by workers) and return only when every point of the job
// is in jn — at which point the server assembles the final result by
// replaying jn through the ordinary execution path, so the cluster result
// is byte-identical to a single-node run by construction.
//
// Implemented by internal/cluster.Coordinator; the indirection exists
// because the cluster package builds on this package's wire types.
//
// audit is the verdict the submitting coordinator's auditor recorded
// against the spec (nil when clean or unaudited). It travels with every
// shard assignment so workers inherit the coordinator's verdict instead of
// re-auditing — in particular, a suppressed guilty spec the coordinator
// accepted must execute on workers whose own strict policy would have
// rejected a fresh submission of it.
type ShardRunner interface {
	RunSharded(ctx context.Context, jobKey string, spec JobSpec, audit []AuditFinding, jn *journal.Journal, onPoint func(key string, replayed bool), onTotal func(int)) error
}

// Shardable reports whether a canonical spec names a job the cluster can
// shard: a grid job whose measurement set is fixed up front. Adaptive
// sweeps (the measurement set depends on oracle verification at runtime)
// stay coordinator-local, as do the jobs that are not grids at all.
func Shardable(spec JobSpec) bool {
	g, err := GridOf(spec)
	return err == nil && g != nil && !g.Adaptive
}

// Server is the biaslabd engine: a bounded worker pool over the
// measurement core, a singleflight job table keyed by content hash, and
// the persistent result store. Construct with New, serve its Handler, and
// stop with Shutdown.
type Server struct {
	cfg     Config
	store   *Store
	queue   chan *job
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	metrics metrics

	mu       sync.Mutex
	jobs     map[string]*job // by id
	active   map[string]*job // queued/running jobs by content key (singleflight)
	runners  map[bench.Size]*core.Runner
	nextID   int
	draining bool

	// Cluster integration, set by SetCluster before serving.
	sharder      ShardRunner
	extraMetrics func() string

	// Audit integration, set by SetAuditor before serving.
	auditor SpecAuditor
}

// SetAuditor attaches a spec auditor: every submission is audited
// statically before any cycles are spent, findings ride along in the
// submit response and job status, and ?strict=1 submissions with
// unsuppressed error findings are rejected. Call before the server starts
// accepting jobs.
func (s *Server) SetAuditor(a SpecAuditor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.auditor = a
}

func (s *Server) specAuditor() SpecAuditor {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.auditor
}

// SetCluster attaches a cluster coordinator: sh takes over execution of
// Shardable jobs (falling back to local execution when it returns
// ErrNotSharded), and metrics (optional) is appended verbatim to the
// /metrics exposition. Call before the server starts accepting jobs.
func (s *Server) SetCluster(sh ShardRunner, metrics func() string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sharder = sh
	s.extraMetrics = metrics
}

func (s *Server) shardRunner() ShardRunner {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sharder
}

// New opens the store under cfg.DataDir and starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("server: Config.DataDir is required")
	}
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("server: creating data dir: %w", err)
	}
	store, err := OpenStore(filepath.Join(cfg.DataDir, "results.jsonl"))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		store:   store,
		queue:   make(chan *job, cfg.QueueCap),
		ctx:     ctx,
		cancel:  cancel,
		jobs:    map[string]*job{},
		active:  map[string]*job{},
		runners: map[bench.Size]*core.Runner{},
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Runner returns the shared Runner for a workload size, creating it on
// first use with the metrics hook attached. Sharing one Runner per size
// across all jobs is what makes the daemon's compile/link caches span
// clients — and, exported, what lets a cluster worker or coordinator
// execute shards through the same caches.
func (s *Server) Runner(size bench.Size) *core.Runner {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runners[size]
	if !ok {
		r = core.NewRunner(size)
		r.OnMeasure = s.metrics.measured
		s.runners[size] = r
	}
	return r
}

// Submit accepts a job: a store hit returns a job born done (zero new
// measurements), an identical in-flight job absorbs the submission
// (singleflight), and anything else is queued for the worker pool.
func (s *Server) Submit(spec JobSpec) (*SubmitResponse, error) {
	return s.SubmitStrict(spec, false)
}

// SubmitStrict is Submit with the audit gate armed: when strict is true
// and the attached auditor records an unsuppressed error-severity finding,
// the spec is rejected with *AuditRejectedError before any queueing,
// caching or measurement happens — the daemon refuses to bless a criminal
// experiment even when its result is already cached.
func (s *Server) SubmitStrict(spec JobSpec, strict bool) (*SubmitResponse, error) {
	canonical, err := spec.Canonicalize()
	if err != nil {
		return nil, err
	}
	key := canonicalKey(canonical)

	// Static audit first: it spends no cycles (the rules read the spec and
	// the bias oracle's compile-time artifacts) and its verdict shapes the
	// rest of the submission. The raw spec is audited, not the canonical
	// one, because AuditAllow suppressions are dropped by Canonicalize.
	findings, err := s.auditSubmission(spec, strict)
	if err != nil {
		return nil, err
	}

	// Store hit: the result is already durable; the job exists only so
	// GET /v1/jobs/{id} and the event stream behave uniformly.
	if _, ok, err := s.store.Get(key); err != nil {
		return nil, err
	} else if ok {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return nil, ErrDraining
		}
		j := s.newJobLocked(canonical, key, findings)
		j.cached = true
		s.mu.Unlock()
		j.setState(StateDone, nil)
		s.metrics.submitted(true)
		return &SubmitResponse{ID: j.id, Key: key, Cached: true, State: StateDone, Audit: findings}, nil
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if j, ok := s.active[key]; ok {
		s.mu.Unlock()
		s.metrics.submitted(true)
		return &SubmitResponse{ID: j.id, Key: key, InFlight: true, State: j.State(), Audit: findings}, nil
	}
	j := s.newJobLocked(canonical, key, findings)
	s.active[key] = j
	select {
	case s.queue <- j:
	default:
		delete(s.jobs, j.id)
		delete(s.active, key)
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	s.mu.Unlock()
	s.metrics.submitted(false)
	s.metrics.enqueued()
	return &SubmitResponse{ID: j.id, Key: key, State: StateQueued, Audit: findings}, nil
}

// auditSubmission runs the attached auditor (if any) over the raw spec,
// maintains the audit counters, and enforces strict gating.
func (s *Server) auditSubmission(spec JobSpec, strict bool) ([]AuditFinding, error) {
	auditor := s.specAuditor()
	if auditor == nil {
		return nil, nil
	}
	findings, err := auditor.AuditSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("server: auditing spec: %w", err)
	}
	gating := 0
	suppressed := 0
	for _, f := range findings {
		if f.Gating() {
			gating++
		}
		if f.Suppressed {
			suppressed++
		}
	}
	s.metrics.audited(len(findings) > 0, suppressed)
	if strict && gating > 0 {
		s.metrics.auditRejected()
		return nil, &AuditRejectedError{Findings: findings}
	}
	return findings, nil
}

// newJobLocked allocates a job under s.mu.
func (s *Server) newJobLocked(canonical JobSpec, key string, audit []AuditFinding) *job {
	s.nextID++
	j := &job{
		id:      "job-" + strconv.Itoa(s.nextID),
		key:     key,
		spec:    canonical,
		audit:   audit,
		state:   StateQueued,
		changed: make(chan struct{}),
	}
	j.events = append(j.events, Event{Type: "state", State: StateQueued})
	s.jobs[j.id] = j
	return j
}

// Job returns the status of a job by id.
func (s *Server) Job(id string) (*JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	st := j.status()
	return &st, true
}

// Result returns the stored canonical result bytes for a content key.
func (s *Server) Result(key string) ([]byte, bool, error) {
	return s.store.Get(key)
}

// MetricsSnapshot captures the daemon's counters.
func (s *Server) MetricsSnapshot() Snapshot {
	s.mu.Lock()
	byState := map[JobState]uint64{}
	for _, j := range s.jobs { //determlint:allow counting by state only
		byState[j.State()]++
	}
	s.mu.Unlock()
	m := &s.metrics
	m.mu.Lock()
	defer m.mu.Unlock()
	return Snapshot{
		JobsSubmitted:   m.jobsSubmitted,
		Jobs:            byState,
		CacheHits:       m.cacheHits,
		CacheMisses:     m.cacheMisses,
		QueueDepth:      m.queueDepth,
		Workers:         s.cfg.Workers,
		WorkersBusy:     m.workersBusy,
		PointsMeasured:  m.pointsMeasured,
		PointsReplayed:  m.pointsReplayed,
		Measurements:    m.measurements,
		Instructions:    m.instructions,
		Cycles:          m.cycles,
		AuditClean:      m.auditClean,
		AuditFlagged:    m.auditFlagged,
		AuditSuppressed: m.auditSuppressed,
		AuditRejected:   m.auditRejects,
		StoredResults:   s.store.Len(),
	}
}

// Shutdown drains the daemon: submissions are rejected, the run context is
// cancelled so in-flight sweeps stop at the next watchdog poll (their
// completed points already fsynced in per-job journals), workers are
// awaited, still-queued jobs are marked canceled, and the store is closed.
// Resubmitting an interrupted job after a restart resumes from its journal
// without re-measuring a single completed point.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	s.cancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	// Workers are gone; whatever is left in the queue never started.
	for {
		select {
		case j := <-s.queue:
			s.metrics.dequeued()
			s.finishJob(j, StateCanceled, context.Canceled)
		default:
			return s.store.Close()
		}
	}
}

// worker pulls jobs until the run context is cancelled.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case j := <-s.queue:
			s.metrics.dequeued()
			s.metrics.busy(1)
			s.runJob(j)
			s.metrics.busy(-1)
		}
	}
}

// runJob executes one job and resolves it.
func (s *Server) runJob(j *job) {
	j.setState(StateRunning, nil)
	raw, err := s.execute(s.ctx, j)
	if err != nil {
		state := StateFailed
		if errors.Is(err, context.Canceled) || s.ctx.Err() != nil {
			state = StateCanceled
		}
		s.finishJob(j, state, err)
		return
	}
	if err := s.store.Put(j.key, raw); err != nil {
		s.finishJob(j, StateFailed, err)
		return
	}
	// The per-job checkpoint journal is redundant once the result is
	// durable; best-effort cleanup.
	os.Remove(s.jobJournalPath(j.key))
	s.finishJob(j, StateDone, nil)
}

// finishJob moves a job to a terminal state and releases its singleflight
// slot.
func (s *Server) finishJob(j *job, state JobState, err error) {
	s.mu.Lock()
	if s.active[j.key] == j {
		delete(s.active, j.key)
	}
	s.mu.Unlock()
	j.setState(state, err)
}

func (s *Server) jobJournalPath(key string) string {
	return filepath.Join(s.cfg.DataDir, "jobs", key+".jsonl")
}

// jobCheckpoint opens the job's checkpoint journal and wraps it so every
// completed point — fresh or replayed from an earlier interrupted run —
// feeds the job's progress, the SSE event stream, and the daemon's
// counters. This is the live-progress spine: the same fsynced record that
// makes a point crash-safe is what announces it to watchers.
func (s *Server) jobCheckpoint(j *job) (core.Checkpoint, func(), error) {
	jn, err := journal.Open(s.jobJournalPath(j.key))
	if err != nil {
		return nil, nil, err
	}
	ck := core.WithProgress(jn, func(key string, replayed bool) {
		j.point(key, replayed)
		s.metrics.point(replayed)
	})
	return ck, func() { jn.Close() }, nil
}

// execute runs the measurement a job names through the shared Execute
// path, wiring the job's checkpoint journal and progress into it, and
// returns the canonical result encoding. When a cluster ShardRunner is
// attached and the job is Shardable, execution is distributed first and
// degrades to the local path if the cluster declines (zero workers alive).
func (s *Server) execute(ctx context.Context, j *job) ([]byte, error) {
	spec := j.spec
	size, err := parseSize(spec.Size)
	if err != nil {
		return nil, err
	}
	if sh := s.shardRunner(); sh != nil && Shardable(spec) {
		raw, err := s.executeSharded(ctx, sh, j)
		if err == nil || !errors.Is(err, ErrNotSharded) {
			return raw, err
		}
		// Zero workers alive: degrade gracefully to local execution. The
		// job journal is shared between both paths, so any points a
		// previous partial cluster run delivered are replayed, not lost.
	}
	// Grid and experiment jobs checkpoint every point; the rest measure
	// too little, or decide too much at runtime, to resume.
	g, err := GridOf(spec)
	if err != nil {
		return nil, err
	}
	var ck core.Checkpoint
	if g != nil || spec.Kind == KindExperiment {
		jobCk, closeCk, err := s.jobCheckpoint(j)
		if err != nil {
			return nil, err
		}
		defer closeCk()
		ck = jobCk
	}
	res, err := Execute(ctx, s.Runner(size), spec, ck, j.setTotal)
	if err != nil {
		return nil, err
	}
	// Run and adaptive-sampling randomize jobs report their point count on
	// completion.
	switch {
	case res.Run != nil:
		j.setTotal(1)
		j.point("run", false)
		s.metrics.point(false)
	case g == nil && res.Randomize != nil:
		j.setTotal(res.Randomize.Estimate.N)
		j.setDone(res.Randomize.Estimate.N)
	}
	return EncodeResult(res)
}

// executeSharded runs a shardable job through the cluster: the coordinator
// fans the pending points out to workers and journals every completed
// point into the job's ordinary checkpoint journal; the server then
// assembles the final result by replaying that journal through the shared
// Execute path — zero new measurements, and byte-identical to a
// single-node run because it *is* the single-node code path over the same
// journal namespace.
func (s *Server) executeSharded(ctx context.Context, sh ShardRunner, j *job) ([]byte, error) {
	size, err := parseSize(j.spec.Size)
	if err != nil {
		return nil, err
	}
	jn, err := journal.Open(s.jobJournalPath(j.key))
	if err != nil {
		return nil, err
	}
	defer jn.Close()
	onPoint := func(key string, replayed bool) {
		j.point(key, replayed)
		s.metrics.point(replayed)
	}
	if err := sh.RunSharded(ctx, j.key, j.spec, j.audit, jn, onPoint, j.setTotal); err != nil {
		return nil, err
	}
	// Assembly replays the now-complete journal without the progress
	// wrapper: every point was already announced exactly once above.
	res, err := Execute(ctx, s.Runner(size), j.spec, jn, nil)
	if err != nil {
		return nil, err
	}
	return EncodeResult(res)
}

// job is one submitted measurement job.
type job struct {
	id     string
	key    string
	spec   JobSpec // canonical
	audit  []AuditFinding
	cached bool

	mu       sync.Mutex
	state    JobState
	progress Progress
	errDet   *ErrorDetail
	events   []Event
	changed  chan struct{} // closed and replaced on every event append
}

// State returns the job's current state.
func (j *job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// status snapshots the job for GET /v1/jobs/{id}.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:       j.id,
		Key:      j.key,
		Spec:     j.spec,
		State:    j.state,
		Cached:   j.cached,
		Progress: j.progress,
		Error:    j.errDet,
		Audit:    j.audit,
	}
}

// emitLocked appends an event and wakes subscribers. Callers hold j.mu.
func (j *job) emitLocked(ev Event) {
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
}

// setState transitions the job and emits a state event; err (when
// non-nil) is recorded as the job's typed failure detail.
func (j *job) setState(state JobState, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	if err != nil {
		j.errDet = newErrorDetail(err)
	}
	j.emitLocked(Event{Type: "state", State: state, Done: j.progress.Done, Total: j.progress.Total, Error: j.errDet})
}

// setTotal sets the expected point count.
func (j *job) setTotal(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress.Total = n
}

// setDone pins the completed count (adaptive-sampling randomize jobs,
// which report progress only at the end).
func (j *job) setDone(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress.Done = n
}

// point records one completed sweep point and emits a point event.
func (j *job) point(key string, replayed bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress.Done++
	if replayed {
		j.progress.Replayed++
	}
	j.emitLocked(Event{
		Type:     "point",
		Key:      key,
		Replayed: replayed,
		Done:     j.progress.Done,
		Total:    j.progress.Total,
	})
}

// terminal reports whether the state is final.
func terminal(state JobState) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// eventsSince returns the events from index i on, a channel that is
// closed when more arrive, and whether the job has reached a terminal
// state. The SSE handler drains events, then waits on the channel.
func (j *job) eventsSince(i int) ([]Event, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i > len(j.events) {
		i = len(j.events)
	}
	evs := append([]Event(nil), j.events[i:]...)
	return evs, j.changed, terminal(j.state)
}
