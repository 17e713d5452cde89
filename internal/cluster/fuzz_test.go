package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"biaslab/internal/journal"
	"biaslab/internal/server"
)

// fuzzJobKey is the key of FuzzHeartbeat's one sharded job.
const fuzzJobKey = "job-fuzz"

// FuzzHeartbeat drives arbitrary bytes through the coordinator's
// heartbeat handler, the protocol's untrusted input, with one joined
// worker ("w1", epoch 1) and one sharded job. The handler must never
// panic; a body that does not decode is a 400; a heartbeat from any other
// worker or epoch is a 409 that changes nothing; a shard is never complete
// before its points are journalled; and a point is journalled at most
// once, however often a body repeats it: sending the same body again
// ingests nothing new.
func FuzzHeartbeat(f *testing.F) {
	spec := protocolSpec(f)
	points, err := Points(spec)
	if err != nil {
		f.Fatal(err)
	}
	var pending []int
	for _, p := range points {
		pending = append(pending, p.Index)
	}
	shard0 := planShards(fuzzJobKey, pending, protocolConfig(newFakeClock()).PointsPerShard)[0]
	seed := func(req HeartbeatRequest) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	var recs []PointRecord
	for _, idx := range shard0 {
		recs = append(recs, PointRecord{Job: fuzzJobKey, Shard: shardID(fuzzJobKey, 0), Index: idx, Key: points[idx].Key, Val: fakeVal(idx)})
	}
	held := []string{shardID(fuzzJobKey, 0), shardID(fuzzJobKey, 1)}
	f.Add(seed(HeartbeatRequest{Worker: "w1", Epoch: 1}))
	f.Add(seed(HeartbeatRequest{Worker: "w1", Epoch: 1, Held: held, Points: append(recs, recs[0])}))
	f.Add(seed(HeartbeatRequest{Worker: "w1", Epoch: 1, Points: recs, Done: []ShardResult{{Job: fuzzJobKey, Shard: held[0]}}}))
	f.Add(seed(HeartbeatRequest{Worker: "w1", Epoch: 1, Done: []ShardResult{{Job: fuzzJobKey, Shard: held[1], Error: "boom"}}}))
	f.Add(seed(HeartbeatRequest{Worker: "w1", Epoch: 1, Done: []ShardResult{{Job: fuzzJobKey, Shard: held[1]}}}))
	f.Add(seed(HeartbeatRequest{Worker: "w1", Epoch: 2, Points: recs}))
	f.Add(seed(HeartbeatRequest{Worker: "w2", Epoch: 1, Points: recs}))
	f.Add(seed(HeartbeatRequest{Worker: "w1", Epoch: 1, Points: []PointRecord{{Job: fuzzJobKey, Index: len(points), Key: "x", Val: fakeVal(0)}}}))
	f.Add([]byte(`{"worker":"w1","epoch":1,"points":[{"job":"job-fuzz","index":-1}]}`))
	f.Add([]byte(`{"worker":"w1","epoch":1} trailing`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, body []byte) {
		c := NewCoordinator(protocolConfig(newFakeClock()))
		w1, err := c.Join(JoinRequest{Worker: "w1", Slots: 2})
		if err != nil || w1.Epoch != 1 {
			t.Fatalf("join = %+v, %v; want epoch 1", w1, err)
		}
		jn := fuzzJob(t, c, spec)
		mux := http.NewServeMux()
		c.Register(mux)
		beat := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/heartbeat", bytes.NewReader(body)))
			return rec
		}

		resp := beat()
		var req HeartbeatRequest
		decodeErr := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		snap := c.MetricsSnapshot()
		switch {
		case decodeErr != nil:
			if resp.Code != http.StatusBadRequest {
				t.Fatalf("undecodable body answered %d, want 400", resp.Code)
			}
		case req.Worker != "w1" || req.Epoch != w1.Epoch:
			if resp.Code != http.StatusConflict {
				t.Fatalf("heartbeat from worker %q epoch %d answered %d, want 409", req.Worker, req.Epoch, resp.Code)
			}
			if snap.Heartbeats != 0 || snap.PointsIngested != 0 || jn.Len() != 0 {
				t.Fatalf("a rejected heartbeat changed state: %d heartbeats, %d points ingested, %d journalled", snap.Heartbeats, snap.PointsIngested, jn.Len())
			}
		default:
			if resp.Code != http.StatusOK {
				t.Fatalf("heartbeat from w1 answered %d (%s), want 200", resp.Code, resp.Body)
			}
			var hr HeartbeatResponse
			if err := json.Unmarshal(resp.Body.Bytes(), &hr); err != nil {
				t.Fatalf("response does not decode: %v", err)
			}
		}
		if got := int(snap.PointsIngested); got != jn.Len() || got > len(points) {
			t.Fatalf("%d points ingested, %d journalled, %d planned", got, jn.Len(), len(points))
		}
		c.mu.Lock()
		for _, sh := range c.shards { //determlint:allow any incomplete shard fails the check
			if sh.completed && !sh.journalled() {
				t.Errorf("shard %s completed without its points journalled", sh.id)
			}
		}
		c.mu.Unlock()

		// Redeliver the same body: every point in it is now a duplicate.
		beat()
		again := c.MetricsSnapshot()
		if again.PointsIngested != snap.PointsIngested || jn.Len() != int(snap.PointsIngested) {
			t.Fatalf("redelivery ingested again: %d → %d points, %d journalled", snap.PointsIngested, again.PointsIngested, jn.Len())
		}
	})
}

// fuzzJob shards spec as fuzzJobKey on c and returns its journal. The
// job's RunSharded is cancelled and awaited when the test ends.
func fuzzJob(t *testing.T, c *Coordinator, spec server.JobSpec) *journal.Journal {
	jn, err := journal.Open(filepath.Join(t.TempDir(), "job.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.RunSharded(ctx, fuzzJobKey, spec, nil, jn, nil, nil)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
		jn.Close()
	})
	for {
		c.mu.Lock()
		_, ok := c.jobs[fuzzJobKey]
		c.mu.Unlock()
		if ok {
			return jn
		}
		time.Sleep(100 * time.Microsecond)
	}
}
