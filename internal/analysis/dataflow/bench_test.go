package dataflow_test

import (
	"testing"

	"biaslab/internal/analysis/dataflow"
	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/linker"
)

// BenchmarkAnalyze measures one whole-program analysis of gobmk, the
// benchmark with the most functions and blocks, linked at size small. The
// pad and base planners run this once per layout.
func BenchmarkAnalyze(b *testing.B) {
	gobmk, ok := bench.ByName("gobmk")
	if !ok {
		b.Fatal("gobmk not registered")
	}
	objs, _, err := compiler.Compile(gobmk.Sources(bench.SizeSmall), compiler.Config{Level: compiler.O2})
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
		if _, err := dataflow.Analyze(exe); err != nil {
			b.Fatal(err)
		}
	}
}
