package core

import (
	"context"
	"testing"

	"biaslab/internal/bench"
)

// BenchmarkSweepPlannedRealMachine measures the oracle-guided sweep where
// the oracle's plateaus are only approximately flat: libquantum on core2
// over the step-128 env grid, with the real plan, so plateaus fail
// verification and fall back to dense measurement. The plan is built once;
// each iteration measures on a fresh Runner, paying its own compile and
// link as a sweep does. points/s counts grid points per second of host
// time and measured_pts the points actually simulated per sweep.
func BenchmarkSweepPlannedRealMachine(b *testing.B) {
	size := bench.SizeSmall
	if testing.Short() {
		size = bench.SizeTest
	}
	libquantum, ok := bench.ByName("libquantum")
	if !ok {
		b.Fatal("libquantum not registered")
	}
	setup := DefaultSetup("core2")
	sizes := DefaultEnvSizes(128)
	plan, err := PlanEnvSweep(NewRunner(size), libquantum, setup, sizes)
	if err != nil {
		b.Fatal(err)
	}
	g := EnvGrid(setup, sizes)
	b.ReportAllocs()
	b.ResetTimer()
	var grid, measured int
	for i := 0; i < b.N; i++ {
		_, stats, err := SweepPlanned(context.Background(), NewRunner(size), libquantum, g, plan, nil)
		if err != nil {
			b.Fatal(err)
		}
		grid += stats.GridPoints
		measured += stats.Measured
	}
	b.ReportMetric(float64(grid)/b.Elapsed().Seconds(), "points/s")
	b.ReportMetric(float64(measured)/float64(b.N), "measured_pts")
}
