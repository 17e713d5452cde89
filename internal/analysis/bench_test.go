package analysis_test

import (
	"testing"

	"biaslab/internal/analysis"
	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/core"
	"biaslab/internal/linker"
	"biaslab/internal/machine"
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

// BenchmarkNewChannelLayouts measures one pad family (gobmk at size small,
// O2, the 87 values of the default pad grid): one dataflow pass relocated
// to the other 86 layouts, plus every layout's footprint. Linking is
// outside the timed loop.
func BenchmarkNewChannelLayouts(b *testing.B) {
	gobmk, ok := bench.ByName("gobmk")
	if !ok {
		b.Fatal("gobmk not registered")
	}
	objs, prog, err := compiler.Compile(gobmk.Sources(bench.SizeSmall), compiler.Config{Level: compiler.O2})
	if err != nil {
		b.Fatal(err)
	}
	values := core.DefaultPadSizes()
	exes := make([]*linker.Executable, len(values))
	for i, v := range values {
		if exes[i], err = linker.Link(objs, linker.Options{PadObjects: v}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.NewChannelLayouts(values, exes, prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConflictMap measures one env-sweep oracle pass: lbm (large bss)
// at size small, O2, on core2, over core.DefaultEnvSizes(16). Each of the
// 257 points counts the L1D, L2 and DTLB set occupancy of the stack,
// globals and text.
func BenchmarkConflictMap(b *testing.B) {
	lbm, ok := bench.ByName("lbm")
	if !ok {
		b.Fatal("lbm not registered")
	}
	objs, prog, err := compiler.Compile(lbm.Sources(bench.SizeSmall), compiler.Config{Level: compiler.O2})
	if err != nil {
		b.Fatal(err)
	}
	exe, err := linker.Link(objs, linker.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg, ok := machine.ConfigByName("core2")
	if !ok {
		b.Fatal("core2 not registered")
	}
	o, err := analysis.NewOracle(exe, prog, cfg, []string{lbm.Name}, 0)
	if err != nil {
		b.Fatal(err)
	}
	sizes := core.DefaultEnvSizes(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conflictMapSink = o.ConflictMap(lbm.Name, "core2", sizes)
	}
}

// conflictMapSink keeps BenchmarkConflictMap's result live.
var conflictMapSink *analysis.ConflictMap
