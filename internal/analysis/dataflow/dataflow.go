// Package dataflow is an interprocedural abstract-interpretation framework
// over the linked text: basic-block CFGs with postdominators, a call graph
// with SCC condensation, and a constant-propagation / value-range lattice on
// registers and frame slots.
//
// The engine exists to answer layout questions the linear scans in
// internal/analysis cannot: which jalr sites go where, how deep a recursive
// SCC can nest, exactly which frame bytes an address-taken slot can reach,
// and which instructions execute on every run (the must-execute core that
// the per-channel bias predictors key on). Everything it proves is derived
// from the same code-generation discipline the rest of the repo relies on —
// SP is adjusted exactly twice per function, frame accesses carry static
// immediates, arguments travel in A0..A5 — plus one axiom the checksum
// oracle enforces dynamically: a well-defined program's frame accesses stay
// inside the frame of the function that owns the slot.
package dataflow

import (
	"fmt"
	"math"

	"biaslab/internal/linker"
)

// Interval is a half-open byte range [Lo, Hi).
type Interval struct {
	Lo, Hi int64
}

// Arg is the abstract value of one call-site argument.
type Arg struct {
	Kind ArgKind
	// Const is the value when Kind == ArgConst.
	Const int64
	// Param/Delta describe caller's parameter Param plus Delta when
	// Kind == ArgParam. ParamLo is the strongest lower bound on the
	// parameter proven to hold at the site (math.MinInt64 when none), and
	// ParamNe lists values the parameter provably cannot take there.
	Param   int
	Delta   int64
	ParamLo int64
	ParamNe []int64
	// SPOff is the frame offset (relative to the caller's entry SP, so
	// negative) when Kind == ArgSP: the argument is a pointer into the
	// caller's own frame.
	SPOff int64
}

// ArgKind classifies a call-site argument.
type ArgKind uint8

const (
	ArgUnknown ArgKind = iota
	ArgConst
	ArgParam
	ArgSP
)

// Call is one resolved call site.
type Call struct {
	PC       uint64
	Target   uint64
	Indirect bool // resolved jalr rather than jal
	MustExec bool // the site postdominates the function entry
	Args     [numArgRegs]Arg

	// targetTag names the region Target addresses, and argTags the
	// region an ArgConst's Const or an ArgParam's Delta carries, so
	// Relocate can move them (zero: not an address).
	targetTag tag
	argTags   [numArgRegs]tag
}

// Transfer is one unconditional taken control transfer (jal or jmp), the
// sites whose target alignment the misaligned-entry penalty keys on.
type Transfer struct {
	PC       uint64
	Target   uint64
	MustExec bool

	targetTag tag // the region Target moves with
}

// Block is one basic block of a function CFG.
type Block struct {
	Start, End uint64 // pc range, half open
	Succs      []int  // indices into FuncInfo.Blocks
	// MustExec is set when the block postdominates the entry block: it
	// executes on every complete run of the function.
	MustExec bool
}

// FuncInfo is the per-function analysis result.
type FuncInfo struct {
	Name  string
	Addr  uint64
	Size  uint64
	Frame int64 // prologue allocation, 0 for frameless functions

	Blocks []*Block

	// Touched lists the frame byte intervals the function's own code can
	// touch, relative to the post-prologue SP, merged and sorted. Exact is
	// false when the interpreter met a construct it could not bound; Notes
	// says why.
	Touched []Interval
	Exact   bool
	Notes   []string

	// ParamTouched maps argument register index to the byte intervals the
	// function (or its callees) can touch relative to a pointer passed in
	// that register. Transitively closed over the call graph.
	ParamTouched [numArgRegs][]Interval

	// Calls lists resolved call sites: every jal, plus each jalr whose
	// target set the engine proved. A jalr resolving to several targets
	// yields one Call per target with the same PC.
	Calls []Call
	// UnresolvedJalr lists jalr call sites whose targets remain unknown.
	UnresolvedJalr []uint64

	// Transfers lists unconditional taken transfers (jal/jmp);
	// CondBranches lists conditional-branch sites. Both feed the layout
	// channel signatures.
	Transfers    []Transfer
	CondBranches []uint64

	// topAccess marks a memory access through an untyped pointer; escapes
	// lists ways a frame pointer left the frame discipline. Analyze couples
	// the two: an untyped access only threatens frame exactness if a frame
	// pointer escaped somewhere in the program. paramEsc marks parameters
	// the function publishes to memory (or returns): storing an integer is
	// harmless, so these become escapes only where a caller actually passes
	// a frame pointer in that position.
	topAccess bool
	escapes   []string
	paramEsc  [numArgRegs]bool
	// paramTags, when non-nil for a register, gives the region each
	// ParamTouched interval's offsets address (see relocate.go).
	paramTags [numArgRegs][]tag
}

const numArgRegs = 6

// Info is the whole-program analysis result.
type Info struct {
	Funcs map[uint64]*FuncInfo
	// Order lists function entry addresses in ascending order.
	Order []uint64

	// SCC condensation of the call graph: SCCID maps a function to its
	// component, Recursive marks components containing a cycle, and Bounds
	// holds, for each recursive component where the engine proved a
	// decreasing-parameter induction, the maximum number of component
	// frames simultaneously live on any call path.
	SCCID     map[uint64]int
	Recursive map[int]bool
	Bounds    map[int]int64

	// Reachable marks functions reachable from the entry point through
	// resolved calls. When any reachable function retains an unresolved
	// jalr, every function is conservatively reachable and
	// AllReachable is set.
	Reachable    map[uint64]bool
	AllReachable bool

	// MustExec marks functions that execute on every complete run: the
	// entry function plus the closure over must-execute call sites.
	MustExec map[uint64]bool

	// posDep says why some fact depends on absolute addresses, so Relocate
	// must refuse this analysis; empty when every fact moves with its
	// region. slack bounds, per pair of regions, the relative shift under
	// which every comparison the interpreter made between their addresses
	// keeps its outcome (see relocate.go).
	posDep string
	slack  map[[2]tag][2]int64
}

// Analyze runs the engine over a linked executable.
func Analyze(exe *linker.Executable) (*Info, error) {
	if len(exe.Funcs) == 0 {
		return nil, fmt.Errorf("dataflow: executable has no function symbols")
	}
	info := &Info{
		Funcs:     map[uint64]*FuncInfo{},
		SCCID:     map[uint64]int{},
		Recursive: map[int]bool{},
		Bounds:    map[int]int64{},
		Reachable: map[uint64]bool{},
		MustExec:  map[uint64]bool{},
	}
	for i := range exe.Funcs {
		fr := &exe.Funcs[i]
		fi, err := buildCFG(exe, fr)
		if err != nil {
			return nil, err
		}
		info.Funcs[fi.Addr] = fi
		info.Order = append(info.Order, fi.Addr)
	}

	// First interpretation pass: optimistic about loads from initialized
	// data (needed to see through jalr tables). If any store may alias a
	// datum such a load read, re-run with data loads degraded to Top.
	pv := newProvenance(exe)
	gs := &globalStores{}
	for _, addr := range info.Order {
		interpFunc(exe, info.Funcs[addr], gs, pv, true)
	}
	if gs.conflicts() {
		gs2 := &globalStores{}
		for _, addr := range info.Order {
			fi := info.Funcs[addr]
			fi.reset()
			interpFunc(exe, fi, gs2, pv, false)
		}
	}

	resolveJalr(exe, info)

	// Propagate conditional escapes: callee publishes parameter j, caller
	// passes a frame pointer (real escape) or forwards its own parameter
	// (the condition propagates up one level).
	for changed := true; changed; {
		changed = false
		for _, fi := range info.Funcs {
			for _, c := range fi.Calls {
				callee := info.Funcs[c.Target]
				if callee == nil {
					continue
				}
				for j := 0; j < numArgRegs; j++ {
					if !callee.paramEsc[j] {
						continue
					}
					switch c.Args[j].Kind {
					case ArgSP:
						e := fmt.Sprintf("frame pointer passed to %s escapes there", callee.Name)
						if !containsStr(fi.escapes, e) {
							fi.escapes = append(fi.escapes, e)
							changed = true
						}
					case ArgParam:
						if p := c.Args[j].Param; p < numArgRegs && !fi.paramEsc[p] {
							fi.paramEsc[p] = true
							changed = true
						}
					}
				}
			}
		}
	}

	// Resolve the escape/untyped-access coupling: if no frame pointer ever
	// escapes the frame discipline, an access through an untyped pointer
	// cannot reach any frame and costs nothing; otherwise both the escaping
	// function and every untyped access lose exactness.
	programEscapes := false
	for _, fi := range info.Funcs {
		if len(fi.escapes) > 0 {
			programEscapes = true
			break
		}
	}
	if programEscapes {
		for _, fi := range info.Funcs {
			for _, e := range fi.escapes {
				fi.note("%s", e)
			}
			if fi.topAccess {
				fi.note("memory access through untyped pointer (a frame pointer escapes)")
			}
		}
	}

	buildCallGraph(info)
	closeParamTouched(info, pv)
	markReachable(exe, info)
	boundRecursion(info, pv)
	info.posDep, info.slack = pv.posDep, pv.slack
	return info, nil
}

// reset clears interpretation results so a function can be re-analyzed.
func (fi *FuncInfo) reset() {
	fi.Touched, fi.Exact, fi.Notes = nil, false, nil
	fi.ParamTouched = [numArgRegs][]Interval{}
	fi.paramTags = [numArgRegs][]tag{}
	fi.Calls, fi.UnresolvedJalr = nil, nil
	fi.Transfers, fi.CondBranches = nil, nil
	fi.topAccess, fi.escapes = false, nil
	fi.paramEsc = [numArgRegs]bool{}
}

// note records an inexactness reason.
func (fi *FuncInfo) note(format string, args ...any) {
	fi.Exact = false
	s := fmt.Sprintf(format, args...)
	for _, n := range fi.Notes {
		if n == s {
			return
		}
	}
	fi.Notes = append(fi.Notes, s)
}

// MergeIntervals sorts and coalesces overlapping or adjacent intervals.
func MergeIntervals(ivs []Interval) []Interval {
	if len(ivs) == 0 {
		return nil
	}
	sorted := append([]Interval(nil), ivs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Lo < sorted[j-1].Lo; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	out := sorted[:1]
	for _, iv := range sorted[1:] {
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

// MaxParamSpan is the span of the full-range ParamTouched marker. An entry
// reaching this width records unbounded pointer arithmetic: the callee may
// touch any offset of the pointed-to object, and whoever composes footprints
// must clip the interval to the object's real extent.
const MaxParamSpan = maxParamSpan

const (
	negInf = math.MinInt64
	posInf = math.MaxInt64
)

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
