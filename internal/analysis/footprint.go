package analysis

import (
	"fmt"
	"sort"

	"biaslab/internal/analysis/dataflow"
	"biaslab/internal/ir"
	"biaslab/internal/isa"
	"biaslab/internal/linker"
)

// Stack-footprint extraction: stage 2's first half. Per-function frame
// intervals come from the interprocedural dataflow engine when it can prove
// them exact — value-range interpretation bounds every SP-relative access,
// resolves jalr targets through data tables, and composes the bytes a callee
// touches through a pointer into the caller's frame. Functions the engine
// cannot model exactly fall back to the original linear text scan, which
// over-approximates address-taken slots from IR slot sizes and flags the
// footprint approximate. A walk of the resolved call graph then turns
// per-function intervals into whole-program displacements below the initial
// stack pointer; recursive components descend to the engine's proven frame
// bound where one exists instead of flagging the footprint approximate.

// Interval is a half-open byte range [Lo, Hi).
type Interval struct {
	Lo, Hi int64
}

// StackFootprint is the set of stack bytes a program can touch, as
// displacements relative to the initial stack pointer (all negative: the
// stack grows down and arguments/returns travel in registers).
type StackFootprint struct {
	// Intervals is sorted by Lo, non-overlapping, non-adjacent.
	Intervals []Interval
	// MaxDepth is the deepest byte below the initial SP (-min Lo).
	MaxDepth int64
	// Approx is set when the extractor met a construct it cannot model
	// exactly: recursion with no provable depth bound, unresolved indirect
	// calls, or pointer-typed slot addresses whose extent had to be taken
	// from IR slot sizes. Predictions from an approximate footprint may
	// over-count touched lines.
	Approx bool
	// ApproxReasons says why, one entry per construct class encountered,
	// deduplicated and sorted.
	ApproxReasons []string
}

// funcFrame is the per-function result of the fallback text scan.
type funcFrame struct {
	name    string
	addr    uint64
	frame   int64      // prologue allocation, 0 for frameless functions
	touched []Interval // frame offsets, relative to post-prologue SP
	calls   []uint64   // absolute jal targets
	approx  []string
}

// ExtractStackFootprint computes the stack footprint of a linked executable.
// prog, when non-nil, supplies IR slot sizes for address-taken frame slots in
// the fallback path (the one case the text does not spell out the extent);
// nil degrades to a conservative estimate and an Approx flag.
func ExtractStackFootprint(exe *linker.Executable, prog *ir.Program) (*StackFootprint, error) {
	df, err := dataflow.Analyze(exe)
	if err != nil {
		df = nil
	}
	return stackFootprint(exe, prog, df)
}

// stackFootprint is ExtractStackFootprint over an analysis already in hand.
// The dataflow engine is strictly an upgrade: any function it proves exact
// uses its intervals, resolved calls, and recursion bounds; any it cannot,
// and the whole program when df is nil (the engine errored out), keep the
// scan results.
func stackFootprint(exe *linker.Executable, prog *ir.Program, df *dataflow.Info) (*StackFootprint, error) {
	if len(exe.Funcs) == 0 {
		return nil, fmt.Errorf("analysis: executable has no function symbols")
	}
	frames := map[uint64]*funcFrame{}
	for i := range exe.Funcs {
		fr := &exe.Funcs[i]
		ff, err := scanFunc(exe, fr, prog)
		if err != nil {
			return nil, err
		}
		frames[fr.Addr] = ff
	}

	entry := exe.Entry
	if _, ok := frames[entry]; !ok {
		return nil, fmt.Errorf("analysis: entry %#x is not a known function", entry)
	}

	fp := &StackFootprint{}
	seen := map[depthKey]bool{}
	onPath := map[uint64]bool{}
	sccLive := map[int]int64{}
	var walk func(addr uint64, depth int64)
	walk = func(addr uint64, depth int64) {
		ff, ok := frames[addr]
		if !ok {
			// jal into the middle of a function cannot come out of the
			// code generator; treat as approximation rather than failing.
			fp.note("call into unknown text at %#x", addr)
			return
		}
		key := depthKey{addr, depth}
		if seen[key] {
			return
		}
		if len(seen) > maxDepthPairs {
			fp.note("call graph exceeds %d (function, depth) pairs", maxDepthPairs)
			return
		}

		// Recursion control. A recursive SCC with a proven frame bound
		// descends until that many component frames are live on the path and
		// then stops: the bound says no real execution stacks more, so the
		// cut loses nothing and the footprint stays exact. Everything else
		// keeps the legacy cycle check.
		var dfi *dataflow.FuncInfo
		bounded := false
		var scc int
		if df != nil {
			dfi = df.Funcs[addr]
			scc = df.SCCID[addr]
			if df.Recursive[scc] {
				if bound, okB := df.Bounds[scc]; okB {
					if sccLive[scc] >= bound {
						return
					}
					bounded = true
				}
			}
		}
		if bounded {
			sccLive[scc]++
			defer func() { sccLive[scc]-- }()
		} else {
			if onPath[addr] {
				fp.note("recursion through %s", ff.name)
				return
			}
			onPath[addr] = true
			defer delete(onPath, addr)
		}
		seen[key] = true

		base := depth + ff.frame // total bytes below initial SP at f's body
		if dfi != nil && dfi.Exact {
			for _, iv := range dfi.Touched {
				fp.Intervals = append(fp.Intervals, Interval{Lo: iv.Lo - base, Hi: iv.Hi - base})
			}
			for range dfi.UnresolvedJalr {
				fp.note("%s: indirect call (jalr)", ff.name)
			}
			for _, c := range dfi.Calls {
				composePointerArgs(fp, df, ff, prog, &c, base)
				walk(c.Target, base)
			}
			return
		}
		for _, iv := range ff.touched {
			fp.Intervals = append(fp.Intervals, Interval{Lo: iv.Lo - base, Hi: iv.Hi - base})
		}
		for _, reason := range ff.approx {
			fp.note("%s: %s", ff.name, reason)
		}
		for _, callee := range ff.calls {
			walk(callee, base)
		}
	}
	walk(entry, 0)

	fp.Intervals = mergeIntervals(fp.Intervals)
	for _, iv := range fp.Intervals {
		if iv.Hi > 0 {
			return nil, fmt.Errorf("analysis: stack access above initial SP at [%d,%d)", iv.Lo, iv.Hi)
		}
		if -iv.Lo > fp.MaxDepth {
			fp.MaxDepth = -iv.Lo
		}
	}
	sort.Strings(fp.ApproxReasons)
	return fp, nil
}

// composePointerArgs folds a callee's pointer-relative footprint into the
// caller's frame for every argument that is a pointer into it. The callee's
// ParamTouched intervals are relative to the passed pointer; shifting by the
// pointer's frame offset lands them in the caller's frame. A full-span marker
// means the callee's arithmetic on the pointer was unbounded, so the interval
// is clipped to the pointed-to slot's extent (from the IR, approximate when
// the function has several slots) — the same slot axiom the legacy scan used.
func composePointerArgs(fp *StackFootprint, df *dataflow.Info, ff *funcFrame, prog *ir.Program, c *dataflow.Call, base int64) {
	callee := df.Funcs[c.Target]
	if callee == nil {
		return
	}
	for j, a := range c.Args {
		if a.Kind != dataflow.ArgSP {
			continue
		}
		frameOff := a.SPOff + ff.frame // offset of the pointer in caller's frame
		for _, iv := range callee.ParamTouched[j] {
			lo, hi := iv.Lo, iv.Hi
			if hi-lo >= dataflow.MaxParamSpan {
				ext, exact := slotExtent(prog, ff.name, ff.frame, frameOff)
				lo, hi = 0, ext
				if !exact {
					fp.note("%s: address-taken frame slot at offset %d with unknown extent", ff.name, frameOff)
				}
			}
			alo, ahi := frameOff+lo, frameOff+hi
			if alo < 0 {
				alo = 0
			}
			if ff.frame > 0 && ahi > ff.frame {
				ahi = ff.frame
			}
			if ahi > alo {
				fp.Intervals = append(fp.Intervals, Interval{Lo: alo - base, Hi: ahi - base})
			}
		}
	}
}

type depthKey struct {
	addr  uint64
	depth int64
}

// maxDepthPairs bounds the call-graph walk; the benchmark suite needs a few
// dozen pairs, so hitting this means something degenerate.
const maxDepthPairs = 4096

// note records an approximation reason once; repeats at other call sites or
// depths add nothing.
func (fp *StackFootprint) note(format string, args ...any) {
	fp.Approx = true
	s := fmt.Sprintf(format, args...)
	for _, r := range fp.ApproxReasons {
		if r == s {
			return
		}
	}
	fp.ApproxReasons = append(fp.ApproxReasons, s)
}

// scanFunc decodes one function's text and extracts its frame size, touched
// frame offsets, and call targets.
func scanFunc(exe *linker.Executable, fr *linker.FuncRange, prog *ir.Program) (*funcFrame, error) {
	ff := &funcFrame{name: fr.Name, addr: fr.Addr}
	start := fr.Addr - exe.TextBase
	end := start + fr.Size
	if end > uint64(len(exe.Text)) {
		return nil, fmt.Errorf("analysis: function %s extends past text", fr.Name)
	}
	sawPrologue := false
	for off := start; off+uint64(isa.InstSize) <= end; off += uint64(isa.InstSize) {
		in := isa.DecodeBytes(exe.Text[off:])
		switch {
		case in.Op == isa.OpAddi && in.Rd == isa.SP && in.Rs1 == isa.SP:
			if in.Imm < 0 && !sawPrologue {
				ff.frame = int64(-in.Imm)
				sawPrologue = true
			}
			// Positive adjustments are epilogues; nothing to record.

		case in.Op.IsLoad() && in.Rs1 == isa.SP:
			lo := int64(in.Imm)
			ff.touch(lo, lo+int64(in.Op.MemBytes()))

		case in.Op.IsStore() && in.Rs1 == isa.SP:
			lo := int64(in.Imm)
			ff.touch(lo, lo+int64(in.Op.MemBytes()))

		case in.Op == isa.OpAddi && in.Rs1 == isa.SP && in.Rd != isa.SP:
			// Slot-address materialization: the code may touch any part of
			// the slot through the derived pointer. The text does not carry
			// the slot's extent; take it from the IR when available.
			size, exact := slotExtent(prog, fr.Name, ff.frame, int64(in.Imm))
			hi := int64(in.Imm) + size
			if ff.frame > 0 && hi > ff.frame {
				hi = ff.frame
			}
			ff.touch(int64(in.Imm), hi)
			if !exact {
				ff.approx = append(ff.approx, fmt.Sprintf("address-taken frame slot at offset %d with unknown extent", in.Imm))
			}

		case in.Op == isa.OpJal:
			ff.calls = append(ff.calls, uint64(in.Imm)*uint64(isa.InstSize))

		case in.Op == isa.OpJalr && in.Rd != isa.R0:
			ff.approx = append(ff.approx, "indirect call (jalr)")
		}
	}
	return ff, nil
}

func (ff *funcFrame) touch(lo, hi int64) {
	if hi > lo {
		ff.touched = append(ff.touched, Interval{Lo: lo, Hi: hi})
	}
}

// slotExtent returns the byte size of the IR frame slot at the given offset
// of the named function, and whether the answer is exact. The code
// generator's frame layout is internal, so the offset cannot be mapped to a
// specific slot; the largest slot size is a safe over-approximation, exact
// only when the function has exactly one slot.
func slotExtent(prog *ir.Program, name string, frame, off int64) (int64, bool) {
	if prog != nil {
		if fn := prog.FindFunc(name); fn != nil && len(fn.Slots) > 0 {
			var max int64
			for _, s := range fn.Slots {
				if s.Size > max {
					max = s.Size
				}
			}
			return max, len(fn.Slots) == 1
		}
	}
	if frame > off {
		return frame - off, false // whole rest of the frame
	}
	return 8, false
}

// mergeIntervals sorts and coalesces overlapping or adjacent intervals.
func mergeIntervals(ivs []Interval) []Interval {
	if len(ivs) == 0 {
		return nil
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Lo < ivs[j].Lo })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}
