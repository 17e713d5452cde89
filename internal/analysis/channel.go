package analysis

import (
	"fmt"
	"sort"

	"biaslab/internal/analysis/dataflow"
	"biaslab/internal/ir"
	"biaslab/internal/linker"
	"biaslab/internal/machine"
)

// Multi-channel layout-bias prediction. The env oracle (oracle.go) covers the
// one channel that moves only the stack. The remaining channels — inter-object
// text padding, an ASLR-style image-base displacement, and link order — move
// the *code* (and with it the globals, since the data segment is laid out
// right after the text). For those, the comparator below decides, for a pair
// of linked layouts, one of three verdicts:
//
//   - EQUAL: the layouts are proven to measure identical cycles. The proof is
//     a behavioural symmetry argument, structure by structure:
//
//     gshare   dirIndex = (pc>>2 ^ hist) & (2^h-1). Adding c to an h-bit
//              index is the identity when c ≡ 0 (mod 2^h) and exactly
//              XOR-with-2^(h-1) when c ≡ 2^(h-1): x+2^(h-1) mod 2^h flips
//              bit h-1 whether or not it carries. A *uniform* shift δ with
//              δ/4 ≡ 0 or 2^(h-1) (mod 2^h) therefore relabels the direction
//              table by a constant XOR, and a freshly reset table is
//              invariant under relabelling. Per-object shifts must all be
//              ≡ 0 (mod 2^(h+2)) — distinct XOR constants per object would
//              change cross-object collisions.
//     BTB      index = pc>>2 mod entries, tag = the remaining bits, and
//              stored targets move with the text, so ANY uniform shift
//              (multiple of 4) preserves hit/miss behaviour exactly;
//              per-object shifts must be ≡ 0 (mod 4·entries) to keep the
//              collision structure.
//     caches   If every region's shift is a multiple of the structure's way
//              span (sets × line), every address keeps its set and the
//              per-set reference string is relabelled injectively: behaviour
//              identical even under pressure. Otherwise the compulsory-miss
//              regime must hold (no set's conservative occupancy exceeds its
//              associativity) and shifts must preserve the line/page
//              partition (multiples of the granule, with no granule shared
//              between regions that shift by different amounts).
//     penalties MisalignedEntry keys on target%16, TakenBranch and the rest
//              on layout-independent event counts; shifts that are multiples
//              of 16 (and of the fetch-block size, which gates I-side
//              probes) preserve them.
//
//   - TRANSITION: the layouts are predicted to measure differently: some
//     must-execute taken transfer's target alignment flips mod 16 on a
//     machine that charges MisalignedEntry, so every run pays a different
//     penalty sum. This is definite up to exact cancellation by an opposing
//     change in another structure — possible in principle, not observed in
//     practice — so plans built from it stay honest by verifying plateaus
//     empirically (the adaptive sweeps) before interpolating.
//
//   - UNKNOWN: neither proof applies. A plan treats the pair as a potential
//     boundary and loses its exactness claim.

// ChannelLayout bundles one linked layout with its static analyses.
type ChannelLayout struct {
	// Value is the channel coordinate that produced the layout (pad bytes,
	// text base, or a link-permutation index).
	Value uint64
	Exe   *linker.Executable
	// Info may be nil when the dataflow engine failed; the comparator then
	// degrades (no reachability restriction, no transition proofs).
	Info *dataflow.Info
	// Foot may be nil; pressure checks then fail conservatively.
	Foot *StackFootprint
}

// NewChannelLayout runs the dataflow engine once over one linked layout and
// derives the stack footprint from that same analysis, so a layout costs one
// dataflow pass. The result equals ExtractStackFootprint and
// dataflow.Analyze run separately: a failed analysis leaves Info nil and the
// footprint on the fallback scan. prog may be nil (see
// ExtractStackFootprint).
func NewChannelLayout(value uint64, exe *linker.Executable, prog *ir.Program) (*ChannelLayout, error) {
	ls, err := NewChannelLayouts([]uint64{value}, []*linker.Executable{exe}, prog)
	if err != nil {
		return nil, err
	}
	return ls[0], nil
}

// NewChannelLayouts builds the layouts of one pad or base family: exes[i]
// is the program linked at values[i], every exe a relink of the same
// objects. The dataflow engine runs once, over exes[0]; every other
// layout's Info is that result relocated (dataflow.Relocate), and a layout
// Relocate refuses gets its own analysis. Each footprint is derived from
// its layout's Info as in NewChannelLayout, so the result equals calling
// NewChannelLayout on every layout.
func NewChannelLayouts(values []uint64, exes []*linker.Executable, prog *ir.Program) ([]*ChannelLayout, error) {
	if len(values) != len(exes) {
		return nil, fmt.Errorf("analysis: %d values for %d layouts", len(values), len(exes))
	}
	layouts := make([]*ChannelLayout, len(exes))
	var first *dataflow.Info
	for i, exe := range exes {
		var info *dataflow.Info
		if i > 0 && first != nil {
			info, _ = dataflow.Relocate(first, exes[0], exe)
		}
		if info == nil {
			var err error
			if info, err = dataflow.Analyze(exe); err != nil {
				info = nil
			}
		}
		if i == 0 {
			first = info
		}
		foot, err := stackFootprint(exe, prog, info)
		if err != nil {
			return nil, err
		}
		layouts[i] = &ChannelLayout{Value: values[i], Exe: exe, Info: info, Foot: foot}
	}
	return layouts, nil
}

// Verdict is the comparator's three-valued answer for a pair of layouts.
type Verdict uint8

const (
	VerdictUnknown Verdict = iota
	VerdictEqual
	VerdictTransition
)

func (v Verdict) String() string {
	switch v {
	case VerdictEqual:
		return "EQUAL"
	case VerdictTransition:
		return "TRANSITION"
	}
	return "UNKNOWN"
}

// ChannelPair is the verdict for one ordered pair of grid points.
type ChannelPair struct {
	I, J    int // indices into ChannelConflictMap.Values, I < J
	Verdict Verdict
	Reason  string
}

// ChannelConflictMap is the multi-channel analogue of ConflictMap: pairwise
// verdicts over a grid of channel values for one (benchmark, machine) pair.
type ChannelConflictMap struct {
	Bench   string
	Machine string
	// Channel names the perturbation: "pad", "base", or "link".
	Channel string
	Values  []uint64
	// Pairs holds a verdict for every i < j pair of grid points.
	Pairs []ChannelPair
	// Approx is set when any layout's footprint was approximate or its
	// dataflow analysis failed; ApproxReasons says why (deduped, sorted).
	Approx        bool
	ApproxReasons []string
}

// Pair returns the verdict for grid points i < j, or nil. Pairs holds the
// pairs in row-major (i, j) order, so row i starts after the
// (n-1) + (n-2) + … + (n-i) pairs of the rows before it.
func (cm *ChannelConflictMap) Pair(i, j int) *ChannelPair {
	n := len(cm.Values)
	if i < 0 || i >= j || j >= n {
		return nil
	}
	k := i*(2*n-i-1)/2 + (j - i - 1)
	if k >= len(cm.Pairs) || cm.Pairs[k].I != i || cm.Pairs[k].J != j {
		return nil
	}
	return &cm.Pairs[k]
}

// BuildChannelConflictMap compares every pair of layouts under cfg. sp is the
// initial stack pointer the measurements will use (layout-independent); it
// locates the stack for the pressure checks.
func BuildChannelConflictMap(benchName, machineName, channel string, cfg machine.Config, sp uint64, layouts []*ChannelLayout) *ChannelConflictMap {
	cm := &ChannelConflictMap{Bench: benchName, Machine: machineName, Channel: channel}
	seen := map[string]bool{}
	for _, l := range layouts {
		cm.Values = append(cm.Values, l.Value)
		var reasons []string
		if l.Foot == nil {
			reasons = append(reasons, "no stack footprint")
		} else if l.Foot.Approx {
			reasons = l.Foot.ApproxReasons
		}
		if l.Info == nil {
			reasons = append(reasons, "dataflow analysis unavailable")
		}
		for _, r := range reasons {
			if !seen[r] {
				seen[r] = true
				cm.Approx = true
				cm.ApproxReasons = append(cm.ApproxReasons, r)
			}
		}
	}
	sort.Strings(cm.ApproxReasons)
	for i := 0; i < len(layouts); i++ {
		for j := i + 1; j < len(layouts); j++ {
			v, reason := compareLayouts(cfg, sp, layouts[i], layouts[j])
			cm.Pairs = append(cm.Pairs, ChannelPair{I: i, J: j, Verdict: v, Reason: reason})
		}
	}
	return cm
}

// compareLayouts decides the verdict for one pair of layouts.
func compareLayouts(cfg machine.Config, sp uint64, a, b *ChannelLayout) (Verdict, string) {
	deltas, uniform, err := computeDeltas(a.Exe, b.Exe)
	if err != "" {
		return VerdictUnknown, err
	}
	if why := equalProof(cfg, sp, a, b, deltas, uniform); why == "" {
		if uniform && deltas.funcs[0] == 0 && deltas.data == 0 && deltas.bss == 0 {
			return VerdictEqual, "identical layout"
		}
		return VerdictEqual, equalReason(deltas, uniform)
	} else if r := transitionProof(cfg, a, deltas); r != "" {
		return VerdictTransition, r
	} else {
		return VerdictUnknown, why
	}
}

// layoutDeltas holds the per-function and per-segment address shifts from
// layout A to layout B.
type layoutDeltas struct {
	funcs     []int64 // parallel to Exe.Funcs
	data, bss int64
}

func computeDeltas(a, b *linker.Executable) (layoutDeltas, bool, string) {
	var d layoutDeltas
	if len(a.Funcs) != len(b.Funcs) {
		return d, false, "different function sets"
	}
	uniform := true
	for i := range a.Funcs {
		fa, fb := &a.Funcs[i], &b.Funcs[i]
		if fa.Name != fb.Name || fa.Size != fb.Size {
			return d, false, fmt.Sprintf("function %s differs between layouts", fa.Name)
		}
		d.funcs = append(d.funcs, int64(fb.Addr)-int64(fa.Addr))
		if d.funcs[i] != d.funcs[0] {
			uniform = false
		}
	}
	if len(d.funcs) == 0 {
		return d, false, "no functions"
	}
	d.data = int64(b.DataBase) - int64(a.DataBase)
	d.bss = int64(b.BSSBase) - int64(a.BSSBase)
	return d, uniform, ""
}

func equalReason(d layoutDeltas, uniform bool) string {
	if uniform {
		return fmt.Sprintf("uniform text shift %+d preserves every structure's behaviour", d.funcs[0])
	}
	return "per-object shifts preserve every structure's behaviour"
}

// equalProof returns "" when the layouts are provably behaviourally equal,
// else the first obstruction.
func equalProof(cfg machine.Config, sp uint64, a, b *ChannelLayout, d layoutDeltas, uniform bool) string {
	hist := cfg.Predictor.HistoryBits
	histSpan := int64(4) << hist
	btbSpan := int64(4) * int64(cfg.Predictor.BTBEntries)

	// Branch predictors.
	if uniform {
		delta := d.funcs[0]
		if delta%4 != 0 {
			return fmt.Sprintf("text shift %+d not instruction-aligned", delta)
		}
		c := (delta >> 2) & (int64(1)<<hist - 1)
		if c != 0 && c != int64(1)<<(hist-1) {
			return fmt.Sprintf("uniform shift %+d is not a gshare index relabelling (need δ ≡ 0 or %d mod %d)", delta, histSpan/2, histSpan)
		}
	} else {
		for i, delta := range d.funcs {
			if delta%histSpan != 0 || delta%btbSpan != 0 {
				return fmt.Sprintf("shift %+d of %s not a multiple of the branch-structure period %d",
					delta, a.Exe.Funcs[i].Name, lcm64(histSpan, btbSpan))
			}
		}
	}

	// Alignment-sensitive granules on the text side: the misaligned-entry
	// check (mod 16), the fetch-block gate, cache lines, and pages.
	granules := []int64{16, int64(cfg.FetchBlockBytes), int64(cfg.L1I.LineSize), int64(cfg.PageSize)}
	for _, g := range granules {
		if g <= 0 {
			continue
		}
		for i, delta := range d.funcs {
			if delta%g != 0 {
				return fmt.Sprintf("shift %+d of %s breaks the %d-byte text partition", delta, a.Exe.Funcs[i].Name, g)
			}
		}
		if !uniform {
			if why := crossShiftSharing(a, b, d, g); why != "" {
				return why
			}
		}
	}
	for _, g := range []int64{int64(cfg.L1D.LineSize), int64(cfg.L2.LineSize), int64(cfg.PageSize)} {
		if g > 0 && (d.data%g != 0 || d.bss%g != 0) {
			return fmt.Sprintf("data shift %+d / bss shift %+d breaks the %d-byte partition", d.data, d.bss, g)
		}
	}

	// Cache and TLB structures: exact set preservation or compulsory-miss
	// regime (pressure-free on both layouts).
	l1i, l1d, l2 := cfg.L1I.Geometry(), cfg.L1D.Geometry(), cfg.L2.Geometry()
	itlb := machine.TLBGeom(cfg.ITLBEntries, cfg.PageSize)
	dtlb := machine.TLBGeom(cfg.DTLBEntries, cfg.PageSize)
	textDeltas := d.funcs
	dataDeltas := []int64{d.data, d.bss}
	structs := []struct {
		name   string
		span   int64
		deltas [][]int64
	}{
		{"L1I", int64(l1i.Sets) * int64(l1i.LineSize), [][]int64{textDeltas}},
		{"ITLB", int64(itlb.Sets) * int64(itlb.PageSize), [][]int64{textDeltas}},
		{"L1D", int64(l1d.Sets) * int64(l1d.LineSize), [][]int64{dataDeltas}},
		{"DTLB", int64(dtlb.Sets) * int64(dtlb.PageSize), [][]int64{dataDeltas}},
		{"L2", int64(l2.Sets) * int64(l2.LineSize), [][]int64{textDeltas, dataDeltas}},
	}
	for _, s := range structs {
		preserved := true
		for _, ds := range s.deltas {
			for _, delta := range ds {
				if delta%s.span != 0 {
					preserved = false
				}
			}
		}
		if preserved {
			continue
		}
		// Set mappings move: the claim must fall back to compulsory misses,
		// which requires the structure pressure-free under both layouts.
		for _, l := range []*ChannelLayout{a, b} {
			over, why := structPressure(cfg, sp, l, s.name)
			if why != "" {
				return why
			}
			if over {
				return fmt.Sprintf("%s sets shift by a non-span multiple under set pressure", s.name)
			}
		}
	}
	return ""
}

// crossShiftSharing reports an obstruction when two functions that shift by
// different amounts share a g-byte granule in either layout — the granule
// partition of the fetched text would not be isomorphic. Only functions that
// can execute matter; unreachable code is never fetched.
func crossShiftSharing(a, b *ChannelLayout, d layoutDeltas, g int64) string {
	check := func(exe *linker.Executable, which string) string {
		type span struct {
			lo, hi int64 // byte range, half open
			delta  int64
			name   string
		}
		var spans []span
		for i := range exe.Funcs {
			f := &exe.Funcs[i]
			if f.Size == 0 || !reachableFunc(a, f.Name) {
				continue
			}
			spans = append(spans, span{int64(f.Addr), int64(f.Addr + f.Size), d.funcs[i], f.Name})
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
		for i := 1; i < len(spans); i++ {
			prev, cur := spans[i-1], spans[i]
			if prev.delta != cur.delta && cur.lo/g == (prev.hi-1)/g {
				return fmt.Sprintf("%s and %s share a %d-byte granule in the %s layout but shift differently",
					prev.name, cur.name, g, which)
			}
		}
		return ""
	}
	if why := check(a.Exe, "first"); why != "" {
		return why
	}
	return check(b.Exe, "second")
}

// reachableFunc reports whether the named function can execute, per layout
// a's dataflow reachability; with no analysis everything is reachable.
func reachableFunc(a *ChannelLayout, name string) bool {
	if a.Info == nil || a.Info.AllReachable {
		return true
	}
	addr, ok := a.Exe.Symbols[name]
	if !ok {
		return true
	}
	return a.Info.Reachable[addr]
}

// structPressure computes the conservative per-set occupancy of one
// structure under one layout and reports whether any set exceeds its
// associativity. Globals are counted wholesale and the stack footprint at sp
// supplies the stack spans, exactly as the env oracle does.
func structPressure(cfg machine.Config, sp uint64, l *ChannelLayout, name string) (bool, string) {
	if l.Foot == nil {
		return false, "no stack footprint for the pressure check"
	}
	stackAt := func(unit int64) []unitSpan {
		spans := make([]unitSpan, 0, len(l.Foot.Intervals))
		for _, iv := range l.Foot.Intervals {
			spans = append(spans, unitSpan{first: (int64(sp) + iv.Lo) / unit, last: (int64(sp) + iv.Hi - 1) / unit})
		}
		return spans
	}
	var globals []Interval
	if len(l.Exe.Data) > 0 {
		globals = append(globals, Interval{Lo: int64(l.Exe.DataBase), Hi: int64(l.Exe.DataBase) + int64(len(l.Exe.Data))})
	}
	if l.Exe.BSSSize > 0 {
		globals = append(globals, Interval{Lo: int64(l.Exe.BSSBase), Hi: int64(l.Exe.BSSBase) + int64(l.Exe.BSSSize)})
	}
	text := []Interval{{Lo: int64(l.Exe.TextBase), Hi: int64(l.Exe.TextBase) + int64(len(l.Exe.Text))}}

	over := func(occ []int16, ways int) bool {
		for _, c := range occ {
			if int(c) > ways {
				return true
			}
		}
		return false
	}
	switch name {
	case "L1I":
		g := cfg.L1I.Geometry()
		return over(occupancy(g.Sets, int64(g.LineSize), nil, text), g.Ways), ""
	case "ITLB":
		g := machine.TLBGeom(cfg.ITLBEntries, cfg.PageSize)
		return over(occupancy(g.Sets, int64(g.PageSize), nil, text), g.Ways), ""
	case "L1D":
		g := cfg.L1D.Geometry()
		return over(occupancy(g.Sets, int64(g.LineSize), stackAt(int64(g.LineSize)), globals), g.Ways), ""
	case "DTLB":
		g := machine.TLBGeom(cfg.DTLBEntries, cfg.PageSize)
		return over(occupancy(g.Sets, int64(g.PageSize), stackAt(int64(g.PageSize)), globals), g.Ways), ""
	case "L2":
		g := cfg.L2.Geometry()
		return over(occupancy(g.Sets, int64(g.LineSize), stackAt(int64(g.LineSize)), globals, text), g.Ways), ""
	}
	return false, fmt.Sprintf("unknown structure %q", name)
}

// transitionProof returns a non-empty reason when the pair provably measures
// differently: a must-execute taken transfer's target alignment flips mod 16
// on a machine charging MisalignedEntry. Must-execute means the site
// postdominates its function's entry AND the function executes on every run,
// so the penalty difference lands on every measurement.
func transitionProof(cfg machine.Config, a *ChannelLayout, d layoutDeltas) string {
	if cfg.Penalties.MisalignedEntry == 0 || a.Info == nil {
		return ""
	}
	deltaAt := func(addr uint64) (int64, bool) {
		f := a.Exe.FuncAt(addr)
		if f == nil {
			return 0, false
		}
		for i := range a.Exe.Funcs {
			if a.Exe.Funcs[i].Addr == f.Addr {
				return d.funcs[i], true
			}
		}
		return 0, false
	}
	flip := func(target uint64, delta int64) bool {
		return (target%16 == 0) != (uint64(int64(target)+delta)%16 == 0)
	}
	for addr, must := range a.Info.MustExec {
		if !must {
			continue
		}
		fi := a.Info.Funcs[addr]
		if fi == nil {
			continue
		}
		for _, t := range fi.Transfers {
			if !t.MustExec {
				continue
			}
			if delta, ok := deltaAt(t.Target); ok && flip(t.Target, delta) {
				return fmt.Sprintf("must-execute transfer at %#x in %s: target %#x alignment flips mod 16", t.PC, fi.Name, t.Target)
			}
		}
		// Returns from must-execute callees land at the call site + 4; that
		// target shifts with the *caller* and is charged like any taken
		// transfer.
		for _, c := range fi.Calls {
			if !c.MustExec {
				continue
			}
			if delta, ok := deltaAt(c.PC); ok && flip(c.PC+4, delta) {
				return fmt.Sprintf("must-execute return target %#x in %s: alignment flips mod 16", c.PC+4, fi.Name)
			}
		}
	}
	return ""
}

func lcm64(a, b int64) int64 {
	g, x := a, b
	for x != 0 {
		g, x = x, g%x
	}
	return a / g * b
}
