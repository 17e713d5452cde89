package cluster

import (
	"context"
	"path/filepath"
	"testing"

	"biaslab/internal/bench"
	"biaslab/internal/core"
	"biaslab/internal/journal"
	"biaslab/internal/server"
)

// TestPointsMatchSingleNodeJournal is the planner's core contract: for
// every shardable kind, the planned point keys are exactly the keys a
// single-node checkpointed run journals. If these ever diverge, cluster
// workers would measure points the merge cannot place — so the test runs
// the real single-node path and compares.
func TestPointsMatchSingleNodeJournal(t *testing.T) {
	specs := []server.JobSpec{
		{Kind: server.KindSweepEnv, Size: "test", Bench: "hmmer", Machine: "p4", Step: 512},
		{Kind: server.KindSweepLink, Size: "test", Bench: "hmmer", Machine: "p4", Orders: 3},
		{Kind: server.KindRandomize, Size: "test", Bench: "hmmer", Machine: "p4", N: 5},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Kind, func(t *testing.T) {
			canonical, err := spec.Canonicalize()
			if err != nil {
				t.Fatal(err)
			}
			size, _ := bench.ParseSize(canonical.Size)
			r := core.NewRunner(size)
			points, err := Points(canonical)
			if err != nil {
				t.Fatal(err)
			}
			if len(points) == 0 {
				t.Fatal("planner produced no points")
			}
			jn, err := journal.Open(filepath.Join(t.TempDir(), "job.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer jn.Close()
			if _, err := server.Execute(context.Background(), r, canonical, jn, nil); err != nil {
				t.Fatal(err)
			}
			unique := map[string]bool{}
			for _, p := range points {
				unique[p.Key] = true
				if _, ok := jn.Raw(p.Key); !ok {
					t.Errorf("planned key %q not journalled by the single-node run", p.Key)
				}
			}
			if jn.Len() != len(unique) {
				t.Errorf("journal has %d keys, planner %d unique keys", jn.Len(), len(unique))
			}
		})
	}
}

// TestPointsRejectsUnshardable: run and experiment jobs have no point
// enumeration.
func TestPointsRejectsUnshardable(t *testing.T) {
	if _, err := Points(server.JobSpec{Kind: server.KindRun, Size: "test", Bench: "hmmer", Machine: "p4"}); err == nil {
		t.Fatal("planner accepted a run job")
	}
}

// TestPlanShards: grouping is in order, bounded, and exhaustive.
func TestPlanShards(t *testing.T) {
	shards := planShards("abcdef0123456789", []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, 4)
	if len(shards) != 3 {
		t.Fatalf("got %d shards, want 3", len(shards))
	}
	want := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8}}
	for i, sh := range shards {
		if len(sh) != len(want[i]) {
			t.Fatalf("shard %d has %d points, want %d", i, len(sh), len(want[i]))
		}
		for j, idx := range sh {
			if idx != want[i][j] {
				t.Fatalf("shard %d point %d = %d, want %d", i, j, idx, want[i][j])
			}
		}
	}
	if id := shardID("abcdef0123456789", 2); id != "abcdef012345-s02" {
		t.Fatalf("shardID = %q", id)
	}
}
