package core

import (
	"testing"

	"biaslab/internal/bench"
)

// BenchmarkPlanPadSweep measures one `biaslab predict -channel pad` plan:
// gobmk on core2 at size small over the default pad grid, on a fresh Runner
// each iteration, so compile, 2×87 links and every layout's analysis are
// timed, as a daemon submit's audit or a predict run pays them.
func BenchmarkPlanPadSweep(b *testing.B) {
	gobmk, ok := bench.ByName("gobmk")
	if !ok {
		b.Fatal("gobmk not registered")
	}
	setup := DefaultSetup("core2")
	values := DefaultPadSizes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PlanPadSweep(NewRunner(bench.SizeSmall), gobmk, setup, values); err != nil {
			b.Fatal(err)
		}
	}
}
