//go:build faultinject

package cluster_test

import (
	"bytes"
	"testing"
	"time"

	"biaslab/internal/cluster"
	"biaslab/internal/faultinject"
	"biaslab/internal/retry"
	"biaslab/internal/server"
)

// These tests require the faultinject build tag:
//
//	go test -tags faultinject ./internal/cluster/
//
// They drive the cluster's three injection sites — worker kill, heartbeat
// drop, and shard stall — and prove the recovery machinery converges on
// byte-identical results every time.

// TestFaultKillWorker: the "kill/<worker>" site crashes w1 mid-sweep — no
// leave, executors abandoned. Its leases expire, the shards requeue on
// w2, and the merged result is byte-identical.
func TestFaultKillWorker(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	// Fires on w1's fourth beat (a tick or an early beat), after it has
	// taken leases.
	faultinject.Arm(faultinject.Fault{Stage: "cluster", Match: "kill/w1", Mode: faultinject.ModeError, After: 3})

	srv, coord := newClusterServer(t, cluster.CoordinatorConfig{
		LeaseTTL:   250 * time.Millisecond,
		Heartbeat:  25 * time.Millisecond,
		StealAfter: time.Hour, // recovery must come from lease expiry
		Backoff:    retry.Policy{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond},
	})
	startWorker(t, "w1", cluster.LocalTransport{C: coord})
	startWorker(t, "w2", cluster.LocalTransport{C: coord})
	waitWorkers(t, coord, 2)

	spec := server.JobSpec{Kind: server.KindSweepEnv, Size: "test", Bench: "hmmer", Machine: "p4", Step: 256}
	raw := submitAndFetch(t, srv, spec)
	if local := localBytes(t, spec); !bytes.Equal(raw, local) {
		t.Error("result after injected kill differs from single-node result")
	}
	if faultinject.Fired() == 0 {
		t.Fatal("kill fault never fired")
	}
	snap := coord.MetricsSnapshot()
	if snap.LeasesExpired == 0 {
		t.Error("LeasesExpired = 0: the killed worker's leases never expired")
	}
	if snap.ShardsRetried == 0 {
		t.Error("ShardsRetried = 0: no shard was requeued after the kill")
	}
	if snap.MergeConflicts != 0 {
		t.Errorf("MergeConflicts = %d, want 0", snap.MergeConflicts)
	}
}

// TestFaultHeartbeatDrop: the "heartbeat/<worker>" site swallows one
// beat. The outbox redelivers on the next beat, so nothing is lost and
// the result is byte-identical.
func TestFaultHeartbeatDrop(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	// Transient: fires exactly once, dropping a single beat mid-job.
	faultinject.Arm(faultinject.Fault{Stage: "cluster", Match: "heartbeat/w1", Mode: faultinject.ModeTransient, After: 4})

	srv, coord := newClusterServer(t, cluster.CoordinatorConfig{
		LeaseTTL:  500 * time.Millisecond,
		Heartbeat: 25 * time.Millisecond,
	})
	startWorker(t, "w1", cluster.LocalTransport{C: coord})
	waitWorkers(t, coord, 1)

	spec := server.JobSpec{Kind: server.KindSweepEnv, Size: "test", Bench: "hmmer", Machine: "p4", Step: 512}
	raw := submitAndFetch(t, srv, spec)
	if local := localBytes(t, spec); !bytes.Equal(raw, local) {
		t.Error("result after dropped heartbeat differs from single-node result")
	}
	if faultinject.Fired() == 0 {
		t.Fatal("heartbeat fault never fired")
	}
	if snap := coord.MetricsSnapshot(); snap.MergeConflicts != 0 {
		t.Errorf("MergeConflicts = %d, want 0", snap.MergeConflicts)
	}
}

// TestFaultEarlyHeartbeatDrop: the "heartbeat/<worker>" site swallows an
// early beat — the one w1 makes when its first shard finishes, well before
// its next tick. Nothing is lost: the outbox delivers the shard on the
// next beat, the tick, and the job goes on from there, with no lease
// expired and no shard retried.
func TestFaultEarlyHeartbeatDrop(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	srv, coord, interval := oneSlotFleet(t)
	// Arrival 0 is the first tick, which hands w1 its first shard; arrival
	// 1 is the early beat that shard's end triggers.
	faultinject.Arm(faultinject.Fault{Stage: "cluster", Match: "heartbeat/w1", Mode: faultinject.ModeTransient, After: 1})

	start := time.Now()
	raw := submitAndFetch(t, srv, chainSpec)
	elapsed := time.Since(start)
	if local := localBytes(t, chainSpec); !bytes.Equal(raw, local) {
		t.Error("result after a dropped early heartbeat differs from single-node result")
	}
	if faultinject.Fired() != 1 {
		t.Fatalf("heartbeat fault fired %d times, want 1", faultinject.Fired())
	}
	snap := coord.MetricsSnapshot()
	if snap.LeasesExpired != 0 || snap.ShardsRetried != 0 || snap.MergeConflicts != 0 {
		t.Errorf("expired %d, retried %d, conflicts %d; want all 0: the next beat should deliver the outbox",
			snap.LeasesExpired, snap.ShardsRetried, snap.MergeConflicts)
	}
	// The drop costs w1 one tick: the first shard waits for tick 2.
	if elapsed < interval || elapsed >= 3*interval {
		t.Errorf("job took %v, want between one and three heartbeat intervals (%v)", elapsed, interval)
	}
}

// TestFaultStallSteal: the "stall/<shard>" site wedges one shard's
// executor until its context is cancelled. With long leases the lease
// table never expires it; recovery must come from work-stealing once the
// queues drain. The stolen copy re-executes (the fault's budget is
// spent), wins, and the loser's revocation unblocks the wedged executor.
func TestFaultStallSteal(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	faultinject.Arm(faultinject.Fault{Stage: "cluster", Match: "stall/", Mode: faultinject.ModeError, Times: 1})

	srv, coord := newClusterServer(t, cluster.CoordinatorConfig{
		LeaseTTL:   10 * time.Second, // renewals keep the wedged lease alive
		Heartbeat:  20 * time.Millisecond,
		StealAfter: 150 * time.Millisecond,
	})
	startWorker(t, "w1", cluster.LocalTransport{C: coord})
	startWorker(t, "w2", cluster.LocalTransport{C: coord})
	waitWorkers(t, coord, 2)

	spec := server.JobSpec{Kind: server.KindSweepEnv, Size: "test", Bench: "hmmer", Machine: "p4", Step: 256}
	raw := submitAndFetch(t, srv, spec)
	if local := localBytes(t, spec); !bytes.Equal(raw, local) {
		t.Error("result after stalled shard differs from single-node result")
	}
	if faultinject.Fired() == 0 {
		t.Fatal("stall fault never fired")
	}
	snap := coord.MetricsSnapshot()
	if snap.ShardsStolen == 0 {
		t.Error("ShardsStolen = 0: the wedged shard was never stolen")
	}
	if snap.MergeConflicts != 0 {
		t.Errorf("MergeConflicts = %d, want 0", snap.MergeConflicts)
	}
}
