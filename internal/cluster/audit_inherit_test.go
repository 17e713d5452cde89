package cluster

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"biaslab/internal/journal"
	"biaslab/internal/server"
)

// TestAuditVerdictInheritedByShards: a coordinator that accepted a
// guilty-but-suppressed spec stamps its audit verdict on every shard
// assignment, byte-for-byte through the wire encoding — workers execute
// under the coordinator's judgment and never re-audit.
func TestAuditVerdictInheritedByShards(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(protocolConfig(clock))
	spec := protocolSpec(t)
	verdict := []server.AuditFinding{{
		Rule:       "single-setup",
		Severity:   server.AuditError,
		Message:    "suppressed for the inheritance test",
		Suppressed: true,
	}}

	jn, err := journal.Open(filepath.Join(t.TempDir(), "job.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	points, err := Points(spec)
	if err != nil {
		t.Fatal(err)
	}
	w1 := mustJoin(t, c, "w1", 8)
	errCh := make(chan error, 1)
	go func() {
		errCh <- c.RunSharded(context.Background(), "job-audit", spec, verdict, jn, nil, nil)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		_, ok := c.jobs["job-audit"]
		c.mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job was never registered")
		}
		time.Sleep(time.Millisecond)
	}

	resp := mustBeat(t, c, HeartbeatRequest{Worker: "w1", Epoch: w1.Epoch})
	if len(resp.Assignments) == 0 {
		t.Fatal("no assignments")
	}
	var recs []PointRecord
	var done []ShardResult
	for _, a := range resp.Assignments {
		if !reflect.DeepEqual(a.Audit, verdict) {
			t.Errorf("shard %s audit = %+v, want inherited %+v", a.Shard, a.Audit, verdict)
		}
		// The verdict survives the wire encoding the HTTP transport uses.
		raw, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		var back ShardAssignment
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Audit, verdict) {
			t.Errorf("shard %s audit did not round-trip: %+v", a.Shard, back.Audit)
		}
		recs = append(recs, deliver(a, points)...)
		done = append(done, ShardResult{Job: a.Job, Shard: a.Shard})
	}
	mustBeat(t, c, HeartbeatRequest{Worker: "w1", Epoch: w1.Epoch, Points: recs, Done: done})
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("RunSharded: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("job did not complete")
	}
}
