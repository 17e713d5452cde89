package core

import (
	"biaslab/internal/linker"
)

// Scalar layout channels beyond the environment: inter-object text padding
// ("pad") and ASLR-style image-base displacement ("base"). Both perturb only
// where the code lands, exactly like the env channel perturbs only where the
// stack lands, so they are ordinary grids: one O3-over-O2 speedup per grid
// value, checkpoint/resume, and (in adaptive_channel.go) a dataflow-backed
// plan that proves plateaus instead of measuring them.

// ChannelPoint is one point of a scalar channel sweep.
type ChannelPoint struct {
	Value      uint64
	CyclesBase uint64
	CyclesOpt  uint64
	Speedup    float64
}

// Cycles returns the point's measured O2/O3 cycle pair.
func (p ChannelPoint) Cycles() (base, opt uint64) { return p.CyclesBase, p.CyclesOpt }

// PadGrid is the text-padding channel: setup with its inter-object padding
// forced to each of values bytes.
func PadGrid(setup Setup, values []uint64) Grid[ChannelPoint] {
	return scalarGrid("pad", setup, values, func(s *Setup, v uint64) { s.TextPad = v })
}

// BaseGrid is the image-base channel: setup linked at each of values as its
// base address. Zero means the linker default base.
func BaseGrid(setup Setup, values []uint64) Grid[ChannelPoint] {
	return scalarGrid("base", setup, values, func(s *Setup, v uint64) { s.TextBase = v })
}

// scalarGrid is a scalar code-layout channel: one setup per value.
func scalarGrid(kind string, setup Setup, values []uint64, set func(*Setup, uint64)) Grid[ChannelPoint] {
	return Grid[ChannelPoint]{Kind: kind, Setups: applyEach(setup, values, set), Point: func(i int, base, opt uint64) ChannelPoint {
		return ChannelPoint{Value: values[i], CyclesBase: base, CyclesOpt: opt, Speedup: speedup(base, opt)}
	}}
}

// DefaultPadSizes returns the canonical padding sweep grid: instruction-
// granular steps through one cache line, then line-granular steps through a
// page, then page-granular steps to 32 KiB — dense where the alignment
// effects live, sparse where only set mappings move.
func DefaultPadSizes() []uint64 {
	var sizes []uint64
	for v := uint64(0); v < 64; v += 4 {
		sizes = append(sizes, v)
	}
	for v := uint64(64); v < 4096; v += 64 {
		sizes = append(sizes, v)
	}
	for v := uint64(4096); v <= 32768; v += 4096 {
		sizes = append(sizes, v)
	}
	return sizes
}

// DefaultTextBases returns the canonical image-base sweep grid: the linker
// default plus instruction-granular displacements through one cache line and
// page-granular displacements through 32 KiB — the reach of ASLR's
// contribution to text placement in this model.
func DefaultTextBases() []uint64 {
	base := uint64(linker.DefaultTextBase)
	var sizes []uint64
	for d := uint64(0); d < 64; d += 4 {
		sizes = append(sizes, base+d)
	}
	for d := uint64(4096); d <= 32768; d += 4096 {
		sizes = append(sizes, base+d)
	}
	return sizes
}
