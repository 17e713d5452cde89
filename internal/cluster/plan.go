package cluster

import (
	"fmt"

	"biaslab/internal/server"
)

// Point is one planned unit of work: the i-th measurement of a job, and
// the single-node checkpoint key its value is journalled under. Two
// points may share a key (randomize jobs can draw coincident setups);
// they are still distinct units for progress accounting, exactly as they
// are on a single node.
type Point struct {
	Index int
	Key   string
}

// Points enumerates a shardable job's full measurement set, in the order
// the single-node path measures it: the points of the spec's server.Grid.
// The enumeration is a pure function of the canonical spec, so the
// coordinator's planner, a worker's shard executor, and a single-node
// resume all derive exactly the same points with exactly the same keys —
// the foundation of the byte-identical merge. The grid takes the
// benchmark's unit list from the spec's workload size.
func Points(spec server.JobSpec) ([]Point, error) {
	g, err := server.GridOf(spec)
	if err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("cluster: job kind %q is not shardable", spec.Kind)
	}
	points := make([]Point, g.Len())
	for i := range points {
		points[i] = Point{i, g.Key(i)}
	}
	return points, nil
}

// planShards groups the pending point indices of a job into shards of at
// most perShard points, in enumeration order. Shard ids embed the job key
// prefix so every id is self-describing in logs and fault-injection site
// keys.
func planShards(jobKey string, pending []int, perShard int) [][]int {
	if perShard <= 0 {
		perShard = 4
	}
	var shards [][]int
	for len(pending) > 0 {
		n := perShard
		if n > len(pending) {
			n = len(pending)
		}
		shards = append(shards, pending[:n:n])
		pending = pending[n:]
	}
	return shards
}

// shardID names the seq-th shard of a job.
func shardID(jobKey string, seq int) string {
	p := jobKey
	if len(p) > 12 {
		p = p[:12]
	}
	return fmt.Sprintf("%s-s%02d", p, seq)
}
