package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"biaslab/internal/bench"
	"biaslab/internal/core"
	"biaslab/internal/journal"
	"biaslab/internal/retry"
	"biaslab/internal/server"
)

// fakeClock is an injectable time source the protocol tests advance by
// hand, so lease expiry, backoff gates, and steal ages are exact rather
// than sleep-raced.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

var testRunnerOnce sync.Once
var testRunner *core.Runner

// sharedRunner returns one process-wide test-size runner; protocol tests
// only plan with it (no measurements), so sharing is safe and fast.
func sharedRunner(bench.Size) *core.Runner {
	testRunnerOnce.Do(func() { testRunner = core.NewRunner(bench.SizeTest) })
	return testRunner
}

func protocolConfig(clock *fakeClock) CoordinatorConfig {
	return CoordinatorConfig{
		LeaseTTL: time.Minute,
		// The ticker inside RunSharded runs on real time; an hour keeps it
		// quiet so the tests drive every state change through Heartbeat.
		Heartbeat:      time.Hour,
		PointsPerShard: 4,
		MaxAttempts:    10,
		StealAfter:     24 * time.Hour,
		Backoff:        retry.Policy{Base: time.Millisecond, Cap: time.Millisecond},
		Runner:         sharedRunner,
		Clock:          clock.Now,
	}
}

func protocolSpec(t testing.TB) server.JobSpec {
	t.Helper()
	spec, err := server.JobSpec{Kind: server.KindSweepEnv, Size: "test", Bench: "hmmer", Machine: "p4", Step: 256}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// startJob launches RunSharded in the background and waits until the
// coordinator has registered and sharded it.
func startJob(t *testing.T, c *Coordinator, key string, spec server.JobSpec) (*journal.Journal, []Point, chan error) {
	t.Helper()
	jn, err := journal.Open(filepath.Join(t.TempDir(), "job.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jn.Close() })
	points, err := Points(spec)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- c.RunSharded(context.Background(), key, spec, nil, jn, nil, nil)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		_, ok := c.jobs[key]
		c.mu.Unlock()
		if ok {
			return jn, points, errCh
		}
		if time.Now().After(deadline) {
			t.Fatal("job was never registered")
		}
		time.Sleep(time.Millisecond)
	}
}

// fakeVal is a syntactically valid point value for protocol-only tests,
// which never assemble a result from the journal.
func fakeVal(i int) json.RawMessage {
	return json.RawMessage(`{"speedup":1.` + string(rune('0'+i%10)) + `}`)
}

// deliver builds the PointRecords for an assignment.
func deliver(a ShardAssignment, points []Point) []PointRecord {
	var recs []PointRecord
	for _, idx := range a.Indices {
		recs = append(recs, PointRecord{Job: a.Job, Shard: a.Shard, Index: idx, Key: points[idx].Key, Val: fakeVal(idx)})
	}
	return recs
}

func mustJoin(t *testing.T, c *Coordinator, id string, slots int) JoinResponse {
	t.Helper()
	resp, err := c.Join(JoinRequest{Worker: id, Slots: slots})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func mustBeat(t *testing.T, c *Coordinator, req HeartbeatRequest) HeartbeatResponse {
	t.Helper()
	resp, err := c.Heartbeat(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestLeaseExpiryRequeueAndReassign: a worker takes every shard and goes
// silent; its leases expire, the shards requeue with backoff, and a
// healthy worker drains them to completion.
func TestLeaseExpiryRequeueAndReassign(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(protocolConfig(clock))
	spec := protocolSpec(t)
	w1 := mustJoin(t, c, "w1", 8)
	jn, points, errCh := startJob(t, c, "job-expiry", spec)
	got := mustBeat(t, c, HeartbeatRequest{Worker: "w1", Epoch: w1.Epoch})
	if len(got.Assignments) == 0 {
		t.Fatal("w1 received no assignments")
	}
	// w1 goes silent; its leases outlive it by exactly the TTL.
	clock.Advance(2 * time.Minute)
	w2 := mustJoin(t, c, "w2", 8)
	mustBeat(t, c, HeartbeatRequest{Worker: "w2", Epoch: w2.Epoch}) // sweep: expire + requeue
	clock.Advance(time.Second)                                      // clear the backoff gates
	resp := mustBeat(t, c, HeartbeatRequest{Worker: "w2", Epoch: w2.Epoch})
	if len(resp.Assignments) == 0 {
		t.Fatal("expired shards were not reassigned to w2")
	}
	held := []string{}
	var recs []PointRecord
	var done []ShardResult
	for _, a := range resp.Assignments {
		held = append(held, a.Shard)
		recs = append(recs, deliver(a, points)...)
		done = append(done, ShardResult{Job: a.Job, Shard: a.Shard})
	}
	mustBeat(t, c, HeartbeatRequest{Worker: "w2", Epoch: w2.Epoch, Held: held, Points: recs, Done: done})
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("RunSharded: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("job did not complete after reassignment")
	}
	snap := c.MetricsSnapshot()
	if snap.LeasesExpired == 0 {
		t.Error("no leases expired")
	}
	if snap.ShardsRetried == 0 {
		t.Error("no shards retried")
	}
	for _, p := range points {
		if _, ok := jn.Raw(p.Key); !ok {
			t.Errorf("point %q missing from journal", p.Key)
		}
	}
}

// TestDeadWorkerDroppedAndEpochRejected: a worker silent past 3×TTL is
// dropped; its stale epoch is rejected and the remedy is a rejoin.
func TestDeadWorkerDroppedAndEpochRejected(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(protocolConfig(clock))
	w1 := mustJoin(t, c, "w1", 2)
	clock.Advance(4 * time.Minute)
	w2 := mustJoin(t, c, "w2", 2)
	mustBeat(t, c, HeartbeatRequest{Worker: "w2", Epoch: w2.Epoch}) // sweep drops w1
	if snap := c.MetricsSnapshot(); snap.WorkersDead != 1 {
		t.Fatalf("WorkersDead = %d, want 1", snap.WorkersDead)
	}
	if _, err := c.Heartbeat(HeartbeatRequest{Worker: "w1", Epoch: w1.Epoch}); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("stale worker heartbeat: got %v, want ErrUnknownWorker", err)
	}
	if _, err := c.Join(JoinRequest{Worker: "w1", Slots: 2}); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
}

// TestWorkSteal: with the queues drained and one straggler copy running
// past StealAfter, an idle worker steals a second copy; the first
// completed copy wins and the loser is revoked.
func TestWorkSteal(t *testing.T) {
	clock := newFakeClock()
	cfg := protocolConfig(clock)
	cfg.LeaseTTL = time.Hour // no expiry: stealing must not wait for it
	cfg.StealAfter = time.Minute
	c := NewCoordinator(cfg)
	spec := protocolSpec(t)
	w1 := mustJoin(t, c, "w1", 8)
	_, points, errCh := startJob(t, c, "job-steal", spec)
	first := mustBeat(t, c, HeartbeatRequest{Worker: "w1", Epoch: w1.Epoch})
	if len(first.Assignments) == 0 {
		t.Fatal("w1 received no assignments")
	}
	held := []string{}
	for _, a := range first.Assignments {
		held = append(held, a.Shard)
	}
	// w1 stays alive (renewing) but never finishes anything.
	clock.Advance(2 * time.Minute)
	mustBeat(t, c, HeartbeatRequest{Worker: "w1", Epoch: w1.Epoch, Held: held})

	w2 := mustJoin(t, c, "w2", 8)
	resp := mustBeat(t, c, HeartbeatRequest{Worker: "w2", Epoch: w2.Epoch})
	if len(resp.Assignments) == 0 {
		t.Fatal("idle worker stole nothing from the straggler")
	}
	for _, a := range resp.Assignments {
		if !a.Stolen {
			t.Errorf("assignment %s not marked stolen", a.Shard)
		}
	}
	if snap := c.MetricsSnapshot(); snap.ShardsStolen == 0 {
		t.Error("ShardsStolen = 0")
	}
	// w2 has 8 slots and there are only 5 shards, so it stole every one;
	// completing them all finishes the job.
	var recs []PointRecord
	var done []ShardResult
	w2Held := []string{}
	for _, a := range resp.Assignments {
		w2Held = append(w2Held, a.Shard)
		recs = append(recs, deliver(a, points)...)
		done = append(done, ShardResult{Job: a.Job, Shard: a.Shard})
	}
	mustBeat(t, c, HeartbeatRequest{Worker: "w2", Epoch: w2.Epoch, Held: w2Held, Points: recs, Done: done})
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("RunSharded: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("job did not complete after the steal")
	}
	// The straggler's next renewal is told to stand down.
	lost := mustBeat(t, c, HeartbeatRequest{Worker: "w1", Epoch: w1.Epoch, Held: held})
	if len(lost.Revoked) == 0 {
		t.Error("straggler's obsolete leases were not revoked")
	}
}

// TestDuplicateDelivery: byte-identical duplicates are counted and
// ignored; a mismatched duplicate is a determinism violation that fails
// the job loudly.
func TestDuplicateDelivery(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(protocolConfig(clock))
	spec := protocolSpec(t)
	w1 := mustJoin(t, c, "w1", 8)
	_, points, errCh := startJob(t, c, "job-dup", spec)
	resp := mustBeat(t, c, HeartbeatRequest{Worker: "w1", Epoch: w1.Epoch})
	if len(resp.Assignments) == 0 {
		t.Fatal("no assignments")
	}
	a := resp.Assignments[0]
	rec := PointRecord{Job: a.Job, Shard: a.Shard, Index: a.Indices[0], Key: points[a.Indices[0]].Key, Val: fakeVal(a.Indices[0])}
	mustBeat(t, c, HeartbeatRequest{Worker: "w1", Epoch: w1.Epoch, Points: []PointRecord{rec, rec}})
	snap := c.MetricsSnapshot()
	if snap.PointsDuplicate != 1 {
		t.Fatalf("PointsDuplicate = %d, want 1", snap.PointsDuplicate)
	}
	if snap.MergeConflicts != 0 {
		t.Fatalf("MergeConflicts = %d, want 0", snap.MergeConflicts)
	}

	bad := rec
	bad.Val = json.RawMessage(`{"speedup":9.9}`)
	mustBeat(t, c, HeartbeatRequest{Worker: "w1", Epoch: w1.Epoch, Points: []PointRecord{bad}})
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "determinism") {
			t.Fatalf("RunSharded error = %v, want determinism violation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mismatched duplicate did not fail the job")
	}
	if snap := c.MetricsSnapshot(); snap.MergeConflicts != 1 {
		t.Fatalf("MergeConflicts = %d, want 1", snap.MergeConflicts)
	}
}

// TestDoneWithoutPointsIsAFailedAttempt: a shard is complete when its
// points are journalled, not when a worker says so. A success report that
// arrives without them counts as a failed attempt: the shard is requeued,
// and the job completes once the points arrive.
func TestDoneWithoutPointsIsAFailedAttempt(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(protocolConfig(clock))
	spec := protocolSpec(t)
	w1 := mustJoin(t, c, "w1", 8)
	_, points, errCh := startJob(t, c, "job-nopoints", spec)
	resp := mustBeat(t, c, HeartbeatRequest{Worker: "w1", Epoch: w1.Epoch})
	if len(resp.Assignments) == 0 {
		t.Fatal("no assignments")
	}
	a := resp.Assignments[0]
	mustBeat(t, c, HeartbeatRequest{Worker: "w1", Epoch: w1.Epoch, Done: []ShardResult{{Job: a.Job, Shard: a.Shard}}})
	if snap := c.MetricsSnapshot(); snap.ShardsCompleted != 0 || snap.ShardsRetried != 1 {
		t.Fatalf("completed %d, retried %d shards after a report without points; want 0 and 1", snap.ShardsCompleted, snap.ShardsRetried)
	}
	var recs []PointRecord
	for _, p := range points {
		recs = append(recs, PointRecord{Job: a.Job, Index: p.Index, Key: p.Key, Val: fakeVal(p.Index)})
	}
	mustBeat(t, c, HeartbeatRequest{Worker: "w1", Epoch: w1.Epoch, Points: recs})
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("RunSharded: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("job did not complete once its points arrived")
	}
}

// TestShardFailureExhaustsAttempts: a shard that keeps failing is retried
// with backoff until the attempt budget is spent, then fails the job.
func TestShardFailureExhaustsAttempts(t *testing.T) {
	clock := newFakeClock()
	cfg := protocolConfig(clock)
	cfg.MaxAttempts = 2
	c := NewCoordinator(cfg)
	spec := protocolSpec(t)
	w1 := mustJoin(t, c, "w1", 8)
	_, _, errCh := startJob(t, c, "job-fail", spec)
	resp := mustBeat(t, c, HeartbeatRequest{Worker: "w1", Epoch: w1.Epoch})
	if len(resp.Assignments) == 0 {
		t.Fatal("no assignments")
	}
	a := resp.Assignments[0]
	mustBeat(t, c, HeartbeatRequest{Worker: "w1", Epoch: w1.Epoch, Done: []ShardResult{{Job: a.Job, Shard: a.Shard, Error: "boom"}}})
	if snap := c.MetricsSnapshot(); snap.ShardsRetried != 1 {
		t.Fatalf("ShardsRetried = %d, want 1", snap.ShardsRetried)
	}
	clock.Advance(time.Second)
	resp = mustBeat(t, c, HeartbeatRequest{Worker: "w1", Epoch: w1.Epoch})
	var again *ShardAssignment
	for i := range resp.Assignments {
		if resp.Assignments[i].Shard == a.Shard {
			again = &resp.Assignments[i]
		}
	}
	if again == nil {
		t.Fatalf("failed shard %s was not reoffered", a.Shard)
	}
	mustBeat(t, c, HeartbeatRequest{Worker: "w1", Epoch: w1.Epoch, Done: []ShardResult{{Job: a.Job, Shard: a.Shard, Error: "boom"}}})
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "after 2 attempts") {
			t.Fatalf("RunSharded error = %v, want attempt exhaustion", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("exhausted shard did not fail the job")
	}
}

// TestNoWorkersDeclines: with nobody alive the coordinator declines and
// the server takes its ordinary local path.
func TestNoWorkersDeclines(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(protocolConfig(clock))
	spec := protocolSpec(t)
	jn, err := journal.Open(filepath.Join(t.TempDir(), "job.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	err = c.RunSharded(context.Background(), "job-none", spec, nil, jn, nil, nil)
	if !errors.Is(err, server.ErrNotSharded) {
		t.Fatalf("got %v, want ErrNotSharded", err)
	}
	if snap := c.MetricsSnapshot(); snap.JobsDegraded != 1 {
		t.Fatalf("JobsDegraded = %d, want 1", snap.JobsDegraded)
	}
}

// TestFullyJournalledJobNeedsNoCluster: a job whose journal already holds
// every point is pure replay — no workers required, every point announced
// as replayed.
func TestFullyJournalledJobNeedsNoCluster(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(protocolConfig(clock))
	spec := protocolSpec(t)
	points, err := Points(spec)
	if err != nil {
		t.Fatal(err)
	}
	jn, err := journal.Open(filepath.Join(t.TempDir(), "job.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	for _, p := range points {
		if err := jn.Record(p.Key, json.RawMessage(`{"speedup":1.0}`)); err != nil {
			t.Fatal(err)
		}
	}
	replayed := 0
	err = c.RunSharded(context.Background(), "job-replay", spec, nil, jn, func(key string, r bool) {
		if r {
			replayed++
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != len(points) {
		t.Fatalf("replayed %d points, want %d", replayed, len(points))
	}
}
