package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"biaslab/internal/bench"
	"biaslab/internal/core"
	"biaslab/internal/journal"
	"biaslab/internal/retry"
	"biaslab/internal/server"
)

// CoordinatorConfig configures a Coordinator. The zero value is usable:
// every field has a production default.
type CoordinatorConfig struct {
	// LeaseTTL is how long a shard lease lives without a heartbeat
	// renewal (default 10s). A worker silent for LeaseTTL is suspect; for
	// 3×LeaseTTL it is dropped as dead.
	LeaseTTL time.Duration
	// Heartbeat is the interval workers are told to beat on (default
	// LeaseTTL/4, so a healthy worker gets several renewal chances per
	// lease).
	Heartbeat time.Duration
	// PointsPerShard bounds shard size (default 4 points). Small shards
	// bound the re-measurement cost of losing one.
	PointsPerShard int
	// MaxAttempts bounds how many times one shard is granted before its
	// job fails (default 4).
	MaxAttempts int
	// StealAfter is how long a shard's sole in-flight copy may run before
	// an idle worker steals a second copy (default 2×LeaseTTL).
	StealAfter time.Duration
	// Backoff paces shard requeues after an expiry or a failure report.
	Backoff retry.Policy
	// Runner supplies the measurement runner for a workload size — used
	// by the planner and by degraded local execution. Required.
	Runner func(size bench.Size) *core.Runner
	// ProbeReady, when non-nil, vets a joining worker's readiness (the
	// daemon probes GET <addr>/readyz). A failing probe rejects the join.
	ProbeReady func(addr string) error
	// Clock is the time source (default time.Now); tests inject a fake.
	Clock func() time.Time
}

func (cfg CoordinatorConfig) withDefaults() CoordinatorConfig {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = cfg.LeaseTTL / 4
	}
	if cfg.PointsPerShard <= 0 {
		cfg.PointsPerShard = 4
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.StealAfter <= 0 {
		cfg.StealAfter = 2 * cfg.LeaseTTL
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now //determlint:allow lease/heartbeat wall clock, injected as fakeClock in tests
	}
	return cfg
}

// lease is one worker's hold on a shard.
type lease struct {
	granted time.Time
	expiry  time.Time
}

// workerState is the coordinator's view of one worker.
type workerState struct {
	id       string
	addr     string
	slots    int
	epoch    int64
	lastBeat time.Time
	held     map[string]*shardState
	// waiting counts the worker's beats the coordinator is holding. A
	// held beat is an open request, so a waiting worker is alive.
	waiting int
}

// silence is how long the worker has gone without a sign of life.
func (w *workerState) silence(now time.Time) time.Duration {
	if w.waiting > 0 {
		return 0
	}
	return now.Sub(w.lastBeat)
}

// shardState is one shard's lifecycle: queued → leased (one or more
// copies) → completed, with expiry or failure sending it back to queued.
type shardState struct {
	id        string
	job       *clusterJob
	indices   []int
	attempts  int
	notBefore time.Time
	queued    bool
	completed bool
	copies    map[string]lease // worker id → lease
}

// clusterJob is one sharded job in flight.
type clusterJob struct {
	key     string
	spec    server.JobSpec
	audit   []server.AuditFinding
	jn      *journal.Journal
	onPoint func(key string, replayed bool)

	points    []Point
	indexDone []bool
	keyOwner  map[string]int // key -> index whose delivery was journalled
	remaining int
	pending   []*shardState

	finished bool
	err      error
	done     chan struct{}
}

// Coordinator owns the worker registry, the lease table, and the shard
// queues of every sharded job. It implements server.ShardRunner; attach
// it with server.SetCluster and expose its HTTP protocol with Register.
type Coordinator struct {
	cfg CoordinatorConfig
	m   clusterMetrics

	mu     sync.Mutex
	epoch  int64
	ws     map[string]*workerState
	ring   ring
	jobs   map[string]*clusterJob
	shards map[string]*shardState
	// queued is closed, and replaced, whenever a shard is queued: it
	// ends the wait of every held beat.
	queued chan struct{}
}

// NewCoordinator builds a coordinator; cfg.Runner is required.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cfg = cfg.withDefaults()
	if cfg.Runner == nil {
		panic("cluster: CoordinatorConfig.Runner is required")
	}
	return &Coordinator{
		cfg:    cfg,
		ws:     map[string]*workerState{},
		jobs:   map[string]*clusterJob{},
		shards: map[string]*shardState{},
		queued: make(chan struct{}),
	}
}

// Join registers (or re-registers) a worker and returns its epoch and the
// protocol timings. A rejoin invalidates the previous epoch: stale
// heartbeats are rejected, and the old registration's leases expire on
// their own schedule.
func (c *Coordinator) Join(req JoinRequest) (JoinResponse, error) {
	if req.Worker == "" {
		return JoinResponse{}, fmt.Errorf("cluster: join with empty worker id")
	}
	if c.cfg.ProbeReady != nil && req.Addr != "" {
		if err := c.cfg.ProbeReady(req.Addr); err != nil {
			return JoinResponse{}, fmt.Errorf("%w: %v", ErrNotReady, err)
		}
	}
	slots := req.Slots
	if slots <= 0 {
		slots = 2
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock()
	if old, ok := c.ws[req.Worker]; ok {
		// Rejoin: drop the old registration's leases immediately — the
		// process behind them is gone (crash) or starting fresh.
		c.dropWorkerLocked(old, now)
	}
	c.epoch++
	w := &workerState{
		id:       req.Worker,
		addr:     req.Addr,
		slots:    slots,
		epoch:    c.epoch,
		lastBeat: now,
		held:     map[string]*shardState{},
	}
	c.ws[req.Worker] = w
	c.ring.Add(req.Worker)
	c.m.add(&c.m.workersJoined, 1)
	return JoinResponse{
		Epoch:       w.epoch,
		LeaseTTLMs:  c.cfg.LeaseTTL.Milliseconds(),
		HeartbeatMs: c.cfg.Heartbeat.Milliseconds(),
	}, nil
}

// Leave gracefully deregisters a worker; its leased shards requeue
// immediately instead of waiting out the lease.
func (c *Coordinator) Leave(req LeaveRequest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.ws[req.Worker]
	if !ok || w.epoch != req.Epoch {
		return
	}
	c.dropWorkerLocked(w, c.cfg.Clock())
	c.m.add(&c.m.workersLeft, 1)
}

// dropWorkerLocked removes a worker from the registry and ring and
// releases its leases (requeueing shards left copyless).
func (c *Coordinator) dropWorkerLocked(w *workerState, now time.Time) {
	for id, sh := range w.held { //determlint:allow lease release; per-shard deletes are order-independent
		delete(sh.copies, w.id)
		delete(w.held, id)
		if !sh.completed && !sh.job.finished && len(sh.copies) == 0 {
			c.requeueLocked(sh, now)
		}
	}
	delete(c.ws, w.id)
	c.ring.Remove(w.id)
}

// Heartbeat is the protocol's one verb: renew leases, ingest results,
// hand out work. An idle beat that asks to wait is first held (see
// holdLocked); if ctx ends while it is held, Heartbeat returns ctx's error
// and changes nothing, since no one is left to read the answer.
func (c *Coordinator) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.holdLocked(ctx, req); err != nil {
		return HeartbeatResponse{}, err
	}
	now := c.cfg.Clock()
	c.sweepLocked(now)

	w, ok := c.ws[req.Worker]
	if !ok || w.epoch != req.Epoch {
		return HeartbeatResponse{}, ErrUnknownWorker
	}
	c.m.add(&c.m.heartbeats, 1)
	w.lastBeat = now

	// Ingest completed points first, so a Done in the same heartbeat sees
	// its shard's points already merged.
	for _, rec := range req.Points {
		if err := c.ingestPointLocked(rec); err != nil {
			// Merge conflicts and journal write failures fail the job, not
			// the heartbeat: the worker did nothing wrong.
			if job, ok := c.jobs[rec.Job]; ok {
				c.finishJobLocked(job, err)
			}
		}
	}
	for _, res := range req.Done {
		c.shardDoneLocked(w, res, now)
	}

	resp := HeartbeatResponse{LeaseTTLMs: c.cfg.LeaseTTL.Milliseconds()}
	// Renew the leases the worker still holds; anything it thinks it
	// holds but the coordinator no longer honors is revoked.
	for _, id := range req.Held {
		sh, ok := c.shards[id]
		if !ok || sh.completed || sh.job.finished {
			resp.Revoked = append(resp.Revoked, id)
			continue
		}
		if _, ok := sh.copies[w.id]; !ok {
			resp.Revoked = append(resp.Revoked, id)
			continue
		}
		l := sh.copies[w.id]
		l.expiry = now.Add(c.cfg.LeaseTTL)
		sh.copies[w.id] = l
		c.m.add(&c.m.leasesRenewed, 1)
	}
	// Fill the worker's free slots.
	for len(w.held) < w.slots {
		sh, stolen := c.pickShardLocked(w, now)
		if sh == nil {
			break
		}
		sh.copies[w.id] = lease{granted: now, expiry: now.Add(c.cfg.LeaseTTL)}
		w.held[sh.id] = sh
		c.m.add(&c.m.leasesGranted, 1)
		if stolen {
			c.m.add(&c.m.shardsStolen, 1)
		}
		resp.Assignments = append(resp.Assignments, ShardAssignment{
			Job:     sh.job.key,
			Shard:   sh.id,
			Spec:    sh.job.spec,
			Audit:   sh.job.audit,
			Indices: sh.indices,
			Stolen:  stolen,
		})
	}
	return resp, nil
}

// holdLocked holds a beat that carries nothing and asks to wait
// (req.WaitMs) until the worker could be given a shard: until a shard is
// queued, the wait ends, or ctx ends. The wait is at most the heartbeat
// interval, and ends when the next backed-off shard becomes ready. A beat
// that carries anything, comes from a stranger, or finds a ready shard
// and a free slot is answered at once. c.mu is released while the beat is
// held.
func (c *Coordinator) holdLocked(ctx context.Context, req HeartbeatRequest) error {
	if req.WaitMs <= 0 || len(req.Held) > 0 || len(req.Points) > 0 || len(req.Done) > 0 {
		return nil
	}
	w, ok := c.ws[req.Worker]
	if !ok || w.epoch != req.Epoch {
		return nil
	}
	wait := c.cfg.Heartbeat
	if req.WaitMs < wait.Milliseconds() {
		wait = time.Duration(req.WaitMs) * time.Millisecond
	}
	if len(w.held) < w.slots {
		now := c.cfg.Clock()
		for _, job := range c.jobs { //determlint:allow readiness scan; the earliest ready time is order-independent
			for _, sh := range job.pending {
				if !sh.notBefore.After(now) {
					return nil
				}
				wait = min(wait, sh.notBefore.Sub(now))
			}
		}
	}
	w.waiting++
	queued := c.queued
	c.mu.Unlock()
	t := time.NewTimer(wait)
	select {
	case <-queued:
	case <-t.C:
	case <-ctx.Done():
	}
	t.Stop()
	c.mu.Lock()
	w.waiting--
	return ctx.Err()
}

// wakeLocked ends the wait of every held beat: a shard was just queued.
func (c *Coordinator) wakeLocked() {
	close(c.queued)
	c.queued = make(chan struct{})
}

// pickShardLocked chooses the next shard for a worker: an eligible queued
// shard (preferring one the ring places on this worker, for cache
// locality), or — when the queues are drained — a stolen copy of a
// straggler whose sole lease has been running longer than StealAfter.
func (c *Coordinator) pickShardLocked(w *workerState, now time.Time) (*shardState, bool) {
	var first *shardState
	for _, job := range c.jobs { //determlint:allow assignment choice; results are assignment-order-independent by the merge discipline
		for _, sh := range job.pending {
			if sh.notBefore.After(now) {
				continue
			}
			if c.ring.Place(sh.id) == w.id {
				c.dequeueLocked(sh)
				return sh, false
			}
			if first == nil {
				first = sh
			}
		}
	}
	if first != nil {
		c.dequeueLocked(first)
		return first, false
	}
	// Work stealing: no queued work anywhere, so chase stragglers.
	for _, job := range c.jobs { //determlint:allow steal-candidate scan; any straggler is a valid victim
		for _, sh := range c.jobShardsLocked(job) {
			if sh.completed || sh.queued || len(sh.copies) != 1 {
				continue
			}
			if _, mine := sh.copies[w.id]; mine {
				continue
			}
			for _, l := range sh.copies { //determlint:allow existence check over lease ages
				if now.Sub(l.granted) >= c.cfg.StealAfter {
					return sh, true
				}
			}
		}
	}
	return nil, false
}

// jobShardsLocked returns a job's shards in deterministic id order.
func (c *Coordinator) jobShardsLocked(job *clusterJob) []*shardState {
	var out []*shardState
	for _, sh := range c.shards { //determlint:allow collected then sorted by id below
		if sh.job == job {
			out = append(out, sh)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// dequeueLocked removes a shard from its job's pending queue.
func (c *Coordinator) dequeueLocked(sh *shardState) {
	q := sh.job.pending
	for i, s := range q {
		if s == sh {
			sh.job.pending = append(q[:i], q[i+1:]...)
			break
		}
	}
	sh.queued = false
}

// requeueLocked sends a copyless shard back to the queue with backoff, or
// fails the job once the attempt budget is spent.
func (c *Coordinator) requeueLocked(sh *shardState, now time.Time) {
	if sh.queued || sh.completed || sh.job.finished {
		return
	}
	sh.attempts++
	if sh.attempts >= c.cfg.MaxAttempts {
		c.finishJobLocked(sh.job, fmt.Errorf("cluster: shard %s failed after %d attempts", sh.id, sh.attempts))
		return
	}
	sh.notBefore = now.Add(c.cfg.Backoff.Delay(sh.id, sh.attempts))
	sh.queued = true
	sh.job.pending = append(sh.job.pending, sh)
	c.m.add(&c.m.shardsRetried, 1)
	c.wakeLocked()
}

// shardDoneLocked processes one shard outcome report.
func (c *Coordinator) shardDoneLocked(w *workerState, res ShardResult, now time.Time) {
	sh, ok := c.shards[res.Shard]
	if !ok || sh.completed || sh.job.finished {
		return // late report from a revoked or finished shard; already acked
	}
	delete(sh.copies, w.id)
	delete(w.held, sh.id)
	if res.Error == "" && !sh.journalled() {
		// A shard is complete when its points are journalled, not when a
		// worker says so. A worker delivers a shard's points before or with
		// its report, so a report without them is a failed attempt; taking
		// it at its word would leave the job waiting for points that no
		// copy will ever deliver.
		res.Error = "reported done before its points arrived"
	}
	if res.Error != "" {
		if len(sh.copies) == 0 {
			c.requeueLocked(sh, now)
		}
		return
	}
	sh.completed = true
	c.m.add(&c.m.shardsCompleted, 1)
	// Other copies (stolen or stale) lose the race; their holders are
	// told via Revoked on their next heartbeat.
	for wid := range sh.copies { //determlint:allow revocation; per-worker deletes are order-independent
		if ow, ok := c.ws[wid]; ok {
			delete(ow.held, sh.id)
		}
		delete(sh.copies, wid)
	}
}

// journalled reports whether every point of the shard is in its job's
// journal. Callers hold c.mu.
func (sh *shardState) journalled() bool {
	for _, i := range sh.indices {
		if !sh.job.indexDone[i] {
			return false
		}
	}
	return true
}

// ingestPointLocked merges one delivered point into its job's journal.
// A redelivery of the same index (at-least-once delivery, stolen copies)
// must be byte-identical to the merged copy — the coordinator's standing
// determinism assertion. Distinct indices may legitimately share a key
// (a drawn link order equal to the default, coincident randomize setups);
// there the first record wins, exactly as the single-node checkpoint path
// behaves: assembly regenerates per-candidate labels from the plan, and
// the cycle counts agree because the key is derived from the full setup.
func (c *Coordinator) ingestPointLocked(rec PointRecord) error {
	job, ok := c.jobs[rec.Job]
	if !ok || job.finished {
		return nil // job already assembled; late duplicate, safely ignored
	}
	if rec.Index < 0 || rec.Index >= len(job.points) {
		c.m.add(&c.m.mergeConflicts, 1)
		return fmt.Errorf("cluster: job %s: point index %d out of range [0,%d)", rec.Job, rec.Index, len(job.points))
	}
	if job.points[rec.Index].Key != rec.Key {
		c.m.add(&c.m.mergeConflicts, 1)
		return fmt.Errorf("cluster: job %s: point %d delivered key %q, planned %q — plan divergence",
			rec.Job, rec.Index, rec.Key, job.points[rec.Index].Key)
	}
	owner, recorded := job.keyOwner[rec.Key]
	switch {
	case !recorded:
		if err := job.jn.Record(rec.Key, rec.Val); err != nil {
			return err
		}
		job.keyOwner[rec.Key] = rec.Index
		c.m.add(&c.m.pointsIngested, 1)
	case owner == rec.Index:
		c.m.add(&c.m.pointsDuplicate, 1)
		if existing, _ := job.jn.Raw(rec.Key); !bytes.Equal(existing, rec.Val) {
			c.m.add(&c.m.mergeConflicts, 1)
			return fmt.Errorf("cluster: job %s: duplicate of %q is not byte-identical (%s vs %s) — determinism violation",
				rec.Job, rec.Key, existing, rec.Val)
		}
	default:
		// Coincident key from a different index: first record wins.
		c.m.add(&c.m.pointsDuplicate, 1)
	}
	if !job.indexDone[rec.Index] {
		job.indexDone[rec.Index] = true
		job.remaining--
		if job.onPoint != nil {
			job.onPoint(rec.Key, false)
		}
		if job.remaining == 0 {
			c.finishJobLocked(job, nil)
		}
	}
	return nil
}

// finishJobLocked resolves a job and releases everything it holds.
func (c *Coordinator) finishJobLocked(job *clusterJob, err error) {
	if job.finished {
		return
	}
	job.finished = true
	job.err = err
	job.pending = nil
	for id, sh := range c.shards { //determlint:allow job teardown; per-shard deletes are order-independent
		if sh.job != job {
			continue
		}
		for wid := range sh.copies { //determlint:allow job teardown; per-worker deletes are order-independent
			if w, ok := c.ws[wid]; ok {
				delete(w.held, id)
			}
		}
		delete(c.shards, id)
	}
	delete(c.jobs, job.key)
	close(job.done)
}

// sweepLocked expires stale leases and drops dead workers.
func (c *Coordinator) sweepLocked(now time.Time) {
	for _, w := range c.ws { //determlint:allow liveness sweep; per-worker drops are order-independent
		if w.silence(now) > 3*c.cfg.LeaseTTL {
			c.dropWorkerLocked(w, now)
			c.m.add(&c.m.workersDead, 1)
		}
	}
	for _, sh := range c.shards { //determlint:allow lease-expiry sweep; per-shard requeues are order-independent
		if sh.completed {
			continue
		}
		for wid, l := range sh.copies { //determlint:allow lease-expiry sweep; per-copy expiries are order-independent
			if now.After(l.expiry) {
				delete(sh.copies, wid)
				if w, ok := c.ws[wid]; ok {
					delete(w.held, sh.id)
				}
				c.m.add(&c.m.leasesExpired, 1)
			}
		}
		if len(sh.copies) == 0 && !sh.queued {
			c.requeueLocked(sh, now)
		}
	}
}

// aliveLocked counts workers whose last heartbeat is within the TTL.
func (c *Coordinator) aliveLocked(now time.Time) int {
	n := 0
	for _, w := range c.ws { //determlint:allow counting only
		if w.silence(now) <= c.cfg.LeaseTTL {
			n++
		}
	}
	return n
}

// RunSharded implements server.ShardRunner: it plans the job's points,
// replays the ones its journal already holds, fans the rest out to the
// fleet, and returns once every point is journalled (or the job failed).
// With zero workers alive at the start it returns server.ErrNotSharded so
// the server takes its ordinary local path; if the fleet dies mid-job the
// coordinator executes the remaining shards inline — same journal, same
// keys, so the hand-off is seamless in both directions.
func (c *Coordinator) RunSharded(ctx context.Context, jobKey string, spec server.JobSpec, audit []server.AuditFinding, jn *journal.Journal, onPoint func(key string, replayed bool), onTotal func(int)) error {
	size, err := bench.ParseSize(spec.Size)
	if err != nil {
		return err
	}
	r := c.cfg.Runner(size)
	points, err := Points(spec)
	if err != nil {
		return err
	}
	if onTotal != nil {
		onTotal(len(points))
	}
	// Replay: points already journalled (an earlier interrupted run,
	// local or clustered) are announced and excluded from the plan.
	indexDone := make([]bool, len(points))
	keyOwner := make(map[string]int)
	var pendingIdx []int
	for _, p := range points {
		if _, ok := jn.Raw(p.Key); ok {
			if _, owned := keyOwner[p.Key]; !owned {
				keyOwner[p.Key] = p.Index
			}
			indexDone[p.Index] = true
			if onPoint != nil {
				onPoint(p.Key, true)
			}
		} else {
			pendingIdx = append(pendingIdx, p.Index)
		}
	}
	if len(pendingIdx) == 0 {
		return nil // fully journalled; assembly needs no cluster at all
	}

	c.mu.Lock()
	now := c.cfg.Clock()
	c.sweepLocked(now)
	if c.aliveLocked(now) == 0 {
		c.m.add(&c.m.jobsDegraded, 1)
		c.mu.Unlock()
		return server.ErrNotSharded
	}
	if _, ok := c.jobs[jobKey]; ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: job %s already sharded", jobKey)
	}
	job := &clusterJob{
		key:       jobKey,
		spec:      spec,
		audit:     audit,
		jn:        jn,
		onPoint:   onPoint,
		points:    points,
		indexDone: indexDone,
		keyOwner:  keyOwner,
		remaining: len(pendingIdx),
		done:      make(chan struct{}),
	}
	for seq, indices := range planShards(jobKey, pendingIdx, c.cfg.PointsPerShard) {
		sh := &shardState{
			id:      shardID(jobKey, seq),
			job:     job,
			indices: indices,
			queued:  true,
			copies:  map[string]lease{},
		}
		job.pending = append(job.pending, sh)
		c.shards[sh.id] = sh
		c.m.add(&c.m.shardsPlanned, 1)
	}
	c.jobs[jobKey] = job
	c.m.add(&c.m.jobsSharded, 1)
	c.wakeLocked()
	c.mu.Unlock()

	tick := time.NewTicker(c.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			c.mu.Lock()
			c.finishJobLocked(job, ctx.Err())
			c.mu.Unlock()
			<-job.done
			return ctx.Err()
		case <-job.done:
			return job.err
		case <-tick.C:
			c.mu.Lock()
			now := c.cfg.Clock()
			c.sweepLocked(now)
			var local *shardState
			if c.aliveLocked(now) == 0 && !job.finished {
				// The fleet is gone mid-job: degrade to local execution,
				// one shard per tick, through the same ingest path.
				for _, sh := range job.pending {
					local = sh
					c.dequeueLocked(sh)
					break
				}
			}
			c.mu.Unlock()
			if local != nil {
				c.runShardLocally(ctx, r, job, local)
			}
		}
	}
}

// runShardLocally executes one shard on the coordinator's own runner and
// feeds its points through the same merge path worker deliveries take.
func (c *Coordinator) runShardLocally(ctx context.Context, r *core.Runner, job *clusterJob, sh *shardState) {
	c.m.add(&c.m.shardsLocal, 1)
	err := ExecuteShard(ctx, r, job.spec, sh.id, sh.indices, func(index int, key string, val json.RawMessage) error {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.ingestPointLocked(PointRecord{Job: job.key, Shard: sh.id, Index: index, Key: key, Val: val})
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	if sh.completed || job.finished {
		return
	}
	if err != nil {
		c.requeueLocked(sh, c.cfg.Clock())
		return
	}
	sh.completed = true
	c.m.add(&c.m.shardsCompleted, 1)
}

// MetricsSnapshot captures the coordinator's counters and worker census.
func (c *Coordinator) MetricsSnapshot() MetricsSnapshot {
	c.mu.Lock()
	now := c.cfg.Clock()
	alive, suspect := 0, 0
	for _, w := range c.ws { //determlint:allow counting only
		if w.silence(now) <= c.cfg.LeaseTTL {
			alive++
		} else {
			suspect++
		}
	}
	c.mu.Unlock()
	m := &c.m
	m.mu.Lock()
	defer m.mu.Unlock()
	return MetricsSnapshot{
		WorkersAlive:    alive,
		WorkersSuspect:  suspect,
		WorkersJoined:   m.workersJoined,
		WorkersLeft:     m.workersLeft,
		WorkersDead:     m.workersDead,
		Heartbeats:      m.heartbeats,
		LeasesGranted:   m.leasesGranted,
		LeasesRenewed:   m.leasesRenewed,
		LeasesExpired:   m.leasesExpired,
		ShardsPlanned:   m.shardsPlanned,
		ShardsCompleted: m.shardsCompleted,
		ShardsRetried:   m.shardsRetried,
		ShardsStolen:    m.shardsStolen,
		ShardsLocal:     m.shardsLocal,
		PointsIngested:  m.pointsIngested,
		PointsDuplicate: m.pointsDuplicate,
		MergeConflicts:  m.mergeConflicts,
		JobsSharded:     m.jobsSharded,
		JobsDegraded:    m.jobsDegraded,
	}
}

// Status snapshots the registry for GET /v1/cluster/status.
func (c *Coordinator) Status() StatusResponse {
	snap := c.MetricsSnapshot()
	c.mu.Lock()
	now := c.cfg.Clock()
	var workers []WorkerStatus
	for _, w := range c.ws { //determlint:allow collected then sorted by worker id below
		state := "alive"
		if w.silence(now) > c.cfg.LeaseTTL {
			state = "suspect"
		}
		workers = append(workers, WorkerStatus{Worker: w.id, State: state, Slots: w.slots, Held: len(w.held)})
	}
	jobs := len(c.jobs)
	c.mu.Unlock()
	sort.Slice(workers, func(i, j int) bool { return workers[i].Worker < workers[j].Worker })
	return StatusResponse{Workers: workers, Jobs: jobs, Metrics: snap}
}
