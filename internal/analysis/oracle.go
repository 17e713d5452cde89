package analysis

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"biaslab/internal/ir"
	"biaslab/internal/linker"
	"biaslab/internal/loader"
	"biaslab/internal/machine"
)

// The bias oracle: stage 2's second half. Under the no-cache-pressure regime
// (every cache set's working-set occupancy is at most its associativity),
// the simulator's data-side misses are purely compulsory: each distinct
// touched line costs one L1D and one L2 miss, each distinct touched page one
// DTLB miss, and nothing else in the cycle count depends on addresses. The
// instruction side never moves with the environment, and the globals are
// fixed by the link. So the only env-sensitive term in the measured cycles
// is the number of distinct lines/pages the *stack* footprint covers at the
// environment-displaced initial SP — an integer-valued function of env size
// that the oracle evaluates without simulating, and whose steps are exactly
// the cycle-count discontinuities the paper's env sweeps exhibit.
//
// When pressure does exist somewhere, conflict-miss counts depend on access
// order, which a static pass cannot know; the oracle then includes the
// per-set occupancy pattern in the signature (any change is a potential
// transition) and flags the prediction as pressure-affected rather than
// claiming exactness.

// Oracle predicts environment-size sensitivity for one linked executable on
// one machine configuration.
type Oracle struct {
	Exe  *linker.Executable
	Foot *StackFootprint
	Cfg  machine.Config

	// Args and StackShift mirror the loader options the measurements use;
	// argv strings live on the stack, so argv participates in the SP
	// arithmetic.
	Args       []string
	StackShift uint64
}

// NewOracle extracts the stack footprint of exe and prepares a predictor
// for cfg. prog may be nil (see ExtractStackFootprint).
func NewOracle(exe *linker.Executable, prog *ir.Program, cfg machine.Config, args []string, stackShift uint64) (*Oracle, error) {
	foot, err := ExtractStackFootprint(exe, prog)
	if err != nil {
		return nil, err
	}
	return &Oracle{Exe: exe, Foot: foot, Cfg: cfg, Args: args, StackShift: stackShift}, nil
}

// EnvSignature is everything about the data-side memory system that can
// change when the environment size moves the stack. Two env sizes with equal
// signatures are predicted to measure identical cycle counts.
type EnvSignature struct {
	SP         uint64 // initial stack pointer at this env size
	StackLines int    // distinct L1D lines covered by the stack footprint
	StackL2    int    // distinct L2 lines (differs when line sizes differ)
	StackPages int    // distinct DTLB pages

	// Pressure is set when some L1D/L2/DTLB set's total occupancy (stack +
	// globals + text where applicable) exceeds its associativity; PatternSig
	// then fingerprints the per-set occupancy vector.
	Pressure   bool
	PatternSig uint64
}

// same reports whether two signatures predict the same cycle count.
func (s EnvSignature) same(o EnvSignature) bool {
	return s.StackLines == o.StackLines && s.StackL2 == o.StackL2 &&
		s.StackPages == o.StackPages && s.Pressure == o.Pressure &&
		s.PatternSig == o.PatternSig
}

// SignatureAt computes the signature for one environment size.
func (o *Oracle) SignatureAt(envBytes uint64) EnvSignature {
	sp := loader.InitialSP(loader.Options{
		Env:        loader.SyntheticEnv(envBytes),
		Args:       o.Args,
		StackShift: o.StackShift,
	})
	sig := EnvSignature{SP: sp}

	l1d := o.Cfg.L1D.Geometry()
	l2 := o.Cfg.L2.Geometry()
	dtlb := machine.TLBGeom(o.Cfg.DTLBEntries, o.Cfg.PageSize)

	stackL1D := o.unitSpans(sp, int64(l1d.LineSize))
	stackL2 := o.unitSpans(sp, int64(l2.LineSize))
	stackPages := o.unitSpans(sp, int64(dtlb.PageSize))
	sig.StackLines = countUnits(stackL1D)
	sig.StackL2 = countUnits(stackL2)
	sig.StackPages = countUnits(stackPages)

	// Pressure: per-set occupancy of each structure, counting everything
	// that competes for it. Globals are counted wholesale (every data/bss
	// byte assumed touched) — an over-approximation that can only err toward
	// reporting pressure, never toward missing it.
	globals := o.globalSpans()
	text := Interval{Lo: int64(o.Exe.TextBase), Hi: int64(o.Exe.TextBase) + int64(len(o.Exe.Text))}

	l1dOcc := occupancy(l1d.Sets, int64(l1d.LineSize), stackL1D, globals)
	l2Occ := occupancy(l2.Sets, int64(l2.LineSize), stackL2, globals, []Interval{text})
	dtlbOcc := occupancy(dtlb.Sets, int64(dtlb.PageSize), stackPages, globals)

	h := newPatternHash()
	over := false
	over = h.fold(l1dOcc, l1d.Ways) || over
	over = h.fold(l2Occ, l2.Ways) || over
	over = h.fold(dtlbOcc, dtlb.Ways) || over
	if over {
		sig.Pressure = true
		sig.PatternSig = h.sum
	}
	return sig
}

// unitSpans translates the stack footprint at sp into absolute intervals and
// returns them unchanged (they are already merged); the unit size is carried
// by the callers' countUnits/occupancy.
func (o *Oracle) unitSpans(sp uint64, unit int64) []unitSpan {
	spans := make([]unitSpan, 0, len(o.Foot.Intervals))
	for _, iv := range o.Foot.Intervals {
		lo := int64(sp) + iv.Lo
		hi := int64(sp) + iv.Hi
		spans = append(spans, unitSpan{first: lo / unit, last: (hi - 1) / unit})
	}
	return spans
}

func (o *Oracle) globalSpans() []Interval {
	var out []Interval
	if len(o.Exe.Data) > 0 {
		out = append(out, Interval{Lo: int64(o.Exe.DataBase), Hi: int64(o.Exe.DataBase) + int64(len(o.Exe.Data))})
	}
	if o.Exe.BSSSize > 0 {
		out = append(out, Interval{Lo: int64(o.Exe.BSSBase), Hi: int64(o.Exe.BSSBase) + int64(o.Exe.BSSSize)})
	}
	return out
}

// unitSpan is an inclusive range of line/page indices; last < first is
// empty.
type unitSpan struct{ first, last int64 }

// distinctRuns calls visit once per run of a disjoint cover of the units in
// spans, which must be sorted by first: every unit some span covers lies in
// exactly one visited run, however the spans nest, overlap or touch.
func distinctRuns(spans []unitSpan, visit func(first, last int64)) {
	prev := int64(-1 << 62) // last unit visited; below every address's unit
	for _, s := range spans {
		f := s.first
		if f <= prev {
			f = prev + 1
		}
		if s.last >= f {
			visit(f, s.last)
			prev = s.last
		}
	}
}

// countUnits counts distinct unit indices across spans sorted by first.
func countUnits(spans []unitSpan) int {
	n := 0
	distinctRuns(spans, func(first, last int64) { n += int(last - first + 1) })
	return n
}

// occupancy computes the per-set distinct-unit count for one cache/TLB
// structure over stack spans plus byte-interval regions. Units (lines or
// pages) are deduplicated first: several stack intervals inside one line
// still occupy exactly one way. Unit u maps to set ((u%sets)+sets)%sets, so
// a run of n units starting in set k puts n/sets units in every set and one
// more in each of the n%sets sets from k on, wrapping. The count is exact
// and costs O(spans·log spans + sets), however many units the spans cover.
func occupancy(sets int, unit int64, stack []unitSpan, regions ...[]Interval) []int16 {
	spans := append([]unitSpan(nil), stack...)
	for _, ivs := range regions {
		for _, iv := range ivs {
			if iv.Hi > iv.Lo {
				spans = append(spans, unitSpan{first: iv.Lo / unit, last: (iv.Hi - 1) / unit})
			}
		}
	}
	slices.SortFunc(spans, func(a, b unitSpan) int { return cmp.Compare(a.first, b.first) })

	// occ first holds the differences of the remainder counts: +1 where a
	// run's extra units start, -1 where they stop. int16 arithmetic wraps,
	// so the prefix sums wrap exactly as one increment per unit would.
	s := int64(sets)
	occ := make([]int16, sets)
	var whole int16
	distinctRuns(spans, func(first, last int64) {
		n := last - first + 1
		whole += int16(n / s)
		k := ((first % s) + s) % s
		end := k + n%s
		occ[k]++
		if end < s {
			occ[end]--
		} else if end > s {
			occ[0]++
			occ[end-s]--
		}
	})
	for i := range occ {
		whole += occ[i]
		occ[i] = whole
	}
	return occ
}

// patternHash fingerprints occupancy vectors (FNV-1a over the counts).
type patternHash struct{ sum uint64 }

func newPatternHash() *patternHash { return &patternHash{sum: 14695981039346656037} }

// fold mixes one structure's occupancy vector into the hash and reports
// whether any set exceeds the given associativity.
func (h *patternHash) fold(occ []int16, ways int) bool {
	over := false
	for _, c := range occ {
		h.sum ^= uint64(uint16(c))
		h.sum *= 1099511628211
		if int(c) > ways {
			over = true
		}
	}
	return over
}

// Transition is one predicted conflict-transition point: the first grid env
// size whose signature differs from the previous grid point's.
type Transition struct {
	PrevEnv  uint64
	EnvBytes uint64
	Prev     EnvSignature
	Next     EnvSignature
	// DeltaCycles is the predicted cycle-count step across the transition
	// under the compulsory-miss model (meaningless under pressure).
	DeltaCycles int64
	Reason      string
}

// ConflictMap is the oracle's product: the predicted env-size sensitivity
// structure of one (executable, machine) pair over a grid of env sizes.
type ConflictMap struct {
	Bench      string
	Machine    string
	Sizes      []uint64
	Signatures []EnvSignature
	// Transitions lists the grid points where the predicted signature
	// changes; between consecutive transitions measured cycles are predicted
	// to be constant.
	Transitions []Transition
	// Approx mirrors StackFootprint.Approx: predictions from an approximate
	// footprint may over-count.
	Approx        bool
	ApproxReasons []string
	// PressureAnywhere is set when any grid point saw set pressure; the
	// compulsory-miss cycle model is not exact there.
	PressureAnywhere bool
}

// ConflictMap evaluates the oracle over a grid of env sizes. Grid spacing is
// the caller's resolution/accuracy trade-off; transitions between grid
// points are attributed to the right-hand point.
func (o *Oracle) ConflictMap(benchName, machineName string, sizes []uint64) *ConflictMap {
	cm := &ConflictMap{
		Bench:         benchName,
		Machine:       machineName,
		Sizes:         sizes,
		Approx:        o.Foot.Approx,
		ApproxReasons: o.Foot.ApproxReasons,
	}
	// Two machine features make misses depend on access order/history in
	// ways a footprint cannot capture; predictions stay useful but lose the
	// exactness claim.
	if o.Cfg.NextLinePrefetch {
		cm.Approx = true
		cm.ApproxReasons = append(cm.ApproxReasons, "next-line prefetch not modelled")
	}
	if o.Cfg.StoreBufferDepth > 0 {
		cm.Approx = true
		cm.ApproxReasons = append(cm.ApproxReasons, "4KiB store aliasing not modelled")
	}
	p := o.Cfg.Penalties
	for i, sz := range sizes {
		sig := o.SignatureAt(sz)
		cm.Signatures = append(cm.Signatures, sig)
		if sig.Pressure {
			cm.PressureAnywhere = true
		}
		if i == 0 {
			continue
		}
		prev := cm.Signatures[i-1]
		if sig.same(prev) {
			continue
		}
		delta := int64(sig.StackLines-prev.StackLines)*int64(p.L1Miss) +
			int64(sig.StackL2-prev.StackL2)*int64(p.L2Miss) +
			int64(sig.StackPages-prev.StackPages)*int64(p.DTLBMiss)
		cm.Transitions = append(cm.Transitions, Transition{
			PrevEnv:     sizes[i-1],
			EnvBytes:    sz,
			Prev:        prev,
			Next:        sig,
			DeltaCycles: delta,
			Reason:      transitionReason(prev, sig),
		})
	}
	return cm
}

func transitionReason(a, b EnvSignature) string {
	var parts []string
	if a.StackLines != b.StackLines {
		parts = append(parts, fmt.Sprintf("L1D stack lines %d→%d", a.StackLines, b.StackLines))
	}
	if a.StackL2 != b.StackL2 {
		parts = append(parts, fmt.Sprintf("L2 stack lines %d→%d", a.StackL2, b.StackL2))
	}
	if a.StackPages != b.StackPages {
		parts = append(parts, fmt.Sprintf("stack pages %d→%d", a.StackPages, b.StackPages))
	}
	if a.Pressure != b.Pressure || a.PatternSig != b.PatternSig {
		parts = append(parts, "set-pressure pattern changed")
	}
	return strings.Join(parts, ", ")
}
