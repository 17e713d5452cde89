package cluster

import (
	"context"
	"encoding/json"
	"fmt"

	"biaslab/internal/core"
	"biaslab/internal/faultinject"
	"biaslab/internal/server"
)

// ExecuteShard measures the given indices of a job's point enumeration
// and emits each completed point as (index, key, canonical JSON value).
// It is the unit both sides share: worker executors run it against their
// own runner, and the coordinator runs it inline when it degrades to
// local execution. The emitted value bytes are produced by json.Marshal
// of the same point structs the single-node checkpoint path records, so
// merging them into the job journal is byte-identical to a single-node
// run recording them itself.
//
// Fault site: "cluster"/"stall/<shard>" turns the shard into a straggler —
// it blocks until cancelled instead of measuring, which is what the
// work-stealing chaos tests use to force a steal.
func ExecuteShard(ctx context.Context, r *core.Runner, spec server.JobSpec, shard string, indices []int, emit func(index int, key string, val json.RawMessage) error) error {
	if err := faultinject.Check("cluster", "stall/"+shard); err != nil {
		<-ctx.Done()
		return ctx.Err()
	}
	// The point enumeration is regenerated here (it is a pure function of
	// the spec) rather than shipped over the wire.
	g, err := server.GridOf(spec)
	if err != nil {
		return err
	}
	if g == nil {
		return fmt.Errorf("cluster: job kind %q is not shardable", spec.Kind)
	}
	for _, i := range indices {
		if err := ctx.Err(); err != nil {
			return err
		}
		if i < 0 || i >= g.Len() {
			return fmt.Errorf("cluster: shard %s point index %d out of range [0,%d)", shard, i, g.Len())
		}
		v, err := g.Measure(ctx, r, i)
		if err != nil {
			return fmt.Errorf("cluster: shard %s point %d: %w", shard, i, err)
		}
		raw, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("cluster: shard %s encoding point %d: %w", shard, i, err)
		}
		if err := emit(i, g.Key(i), raw); err != nil {
			return err
		}
	}
	return nil
}
