// Package bench provides the benchmark suite: twelve programs written in
// cmini, one analogue for each SPEC CPU2006 C benchmark the paper evaluates.
// Each analogue reproduces its original's dominant computational kernel and
// memory behaviour (string hashing, compression, sparse graphs, lattice
// sweeps, game-tree search, dynamic programming, bit manipulation, block
// matching, stencils, and beam search) so the suite exercises the same mix
// of call-heavy, loop-heavy, cache-friendly and cache-hostile behaviour the
// paper's measurements ride on.
//
// Every benchmark is split across several translation units — that is what
// gives the linker a link order to permute — and ends by emitting a
// checksum, so any toolchain or simulator bug that changes semantics is
// caught by differential testing rather than silently skewing results.
package bench

import (
	"fmt"
	"sort"

	"biaslab/internal/compiler"
)

// Size selects a workload scale.
type Size int

const (
	// SizeTest is for unit tests: tens of thousands of instructions.
	SizeTest Size = iota
	// SizeSmall is the experiment default: a few million instructions.
	SizeSmall
	// SizeRef is for longer, more stable measurements.
	SizeRef
)

func (s Size) String() string {
	switch s {
	case SizeTest:
		return "test"
	case SizeSmall:
		return "small"
	case SizeRef:
		return "ref"
	}
	return "size?"
}

// ParseSize converts "test", "small" or "ref".
func ParseSize(s string) (Size, error) {
	switch s {
	case "test":
		return SizeTest, nil
	case "small":
		return SizeSmall, nil
	case "ref":
		return SizeRef, nil
	}
	return 0, fmt.Errorf("bench: unknown workload size %q", s)
}

// Benchmark is one suite member.
type Benchmark struct {
	// Name is the short name ("perlbench").
	Name string
	// Spec is the SPEC CPU2006 benchmark this program is an analogue of.
	Spec string
	// Kernel describes the dominant computation.
	Kernel string
	// scales maps workload sizes to the scale parameter spliced into the
	// sources.
	scales map[Size]int
	// sources builds the translation units for a given scale.
	sources func(scale int) []compiler.Source
}

// Sources returns the benchmark's translation units at the given size.
// The unit order returned here is the "default" link order.
func (b *Benchmark) Sources(size Size) []compiler.Source {
	return b.sources(b.scales[size])
}

// UnitNames lists b's translation units at the given size, in default
// link order.
func (b *Benchmark) UnitNames(size Size) []string {
	srcs := b.Sources(size)
	names := make([]string, len(srcs))
	for i, s := range srcs {
		names[i] = s.Name
	}
	return names
}

// Scale exposes the raw scale parameter (for documentation output).
func (b *Benchmark) Scale(size Size) int { return b.scales[size] }

var registry = map[string]*Benchmark{}

func register(b *Benchmark) {
	if _, dup := registry[b.Name]; dup {
		panic("bench: duplicate benchmark " + b.Name)
	}
	registry[b.Name] = b
}

// All returns the suite sorted by name.
func All() []*Benchmark {
	out := make([]*Benchmark, 0, len(registry))
	for _, b := range registry {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the benchmark names, sorted.
func Names() []string {
	bs := All()
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name
	}
	return names
}

// ByName looks up a benchmark.
func ByName(name string) (*Benchmark, bool) {
	b, ok := registry[name]
	return b, ok
}

// Synthetic builds an unregistered benchmark directly from a source
// builder — the hook for tests that need to feed the measurement pipeline
// programs outside the suite (for example deliberately uncompilable ones).
// The same builder serves every workload size at scale 1.
func Synthetic(name string, sources func(scale int) []compiler.Source) *Benchmark {
	return &Benchmark{
		Name:    name,
		Kernel:  "synthetic",
		scales:  map[Size]int{SizeTest: 1, SizeSmall: 1, SizeRef: 1},
		sources: sources,
	}
}

// src is a helper to build a compiler.Source with the benchmark prefix.
func src(bench, unit, text string) compiler.Source {
	return compiler.Source{Name: bench + "_" + unit + ".cm", Text: text}
}
