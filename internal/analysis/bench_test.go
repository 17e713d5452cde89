package analysis_test

import (
	"testing"

	"biaslab/internal/analysis"
	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/linker"
)

// BenchmarkNewChannelLayout measures the static analyses of one linked
// layout (gobmk at size small, O2): the per-value cost of a pad or base
// plan.
func BenchmarkNewChannelLayout(b *testing.B) {
	gobmk, ok := bench.ByName("gobmk")
	if !ok {
		b.Fatal("gobmk not registered")
	}
	objs, prog, err := compiler.Compile(gobmk.Sources(bench.SizeSmall), compiler.Config{Level: compiler.O2})
	if err != nil {
		b.Fatal(err)
	}
	exe, err := linker.Link(objs, linker.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.NewChannelLayout(0, exe, prog); err != nil {
			b.Fatal(err)
		}
	}
}
