package core

import (
	"context"
	"runtime"
	"testing"

	"biaslab/internal/bench"
)

// TestCoRunAllocationGuard: a warm co-run takes its machine and both image
// buffers from pools, so a measurement allocates a small fraction of one
// 32 MiB co-runner image.
func TestCoRunAllocationGuard(t *testing.T) {
	b, _ := bench.ByName("sjeng")
	setup := DefaultSetup("core2")
	setup.CoRunner = CoRunner{Bench: "sjeng"}
	r := NewRunner(bench.SizeTest)
	if _, err := r.Measure(context.Background(), b, setup); err != nil {
		t.Fatal(err) // warm the compile/link caches and the pools
	}
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := r.Measure(context.Background(), b, setup); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const limit = 8 << 20
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= limit {
		t.Errorf("warm co-run allocates %d bytes per measurement, want < %d", per, limit)
	}
}
