package dataflow

import (
	"cmp"
	"slices"
	"sort"

	"biaslab/internal/isa"
	"biaslab/internal/linker"
)

// Abstract interpretation of one function over a value lattice rich enough
// to type every address the code generator can form:
//
//	kTop    — unknown
//	kRange  — integer in [lo, hi] (constant iff lo == hi)
//	kSP     — entry SP plus an offset in [lo, hi] (a frame pointer)
//	kParam  — the function's i-th argument plus a constant delta
//	kDiff   — xor of two compared values (feeds the eq/ne lowering)
//	kPred   — a boolean relation between two tracked operands
//	kSet    — a small set of constants (words read from jalr tables)
//
// Frame slots are tracked as cells keyed by entry-relative offset; branch
// outcomes refine operand ranges (and parameter constraints) along each
// edge, which is what turns a `depth == 0` guard plus a `depth-1` argument
// into a provable recursion bound.

type vkind uint8

const (
	kTop vkind = iota
	kRange
	kSP
	kParam
	kDiff
	kPred
	kSet
)

type value struct {
	k vkind
	// tag and htag say which relocated region the lower and upper bound
	// of a kRange or kParam offset (both: the members of a kSet) address;
	// see relocate.go. They are metadata: eq and the lattice ignore them.
	tag, htag tag
	param     int32 // kept beside the tags so a value stays 64 bytes
	lo, hi    int64 // kRange bounds, kSP offsets, kParam delta (lo==hi)
	p         *pred
	set       []uint64 // kSet members, sorted
}

func topV() value          { return value{k: kTop} }
func constV(c int64) value { return value{k: kRange, lo: c, hi: c} }
func rangeV(lo, hi int64) value {
	if lo > hi {
		return topV()
	}
	return value{k: kRange, lo: lo, hi: hi}
}

func (v value) isConst() bool { return v.k == kRange && v.lo == v.hi }

// numeric reports whether v's abstract value is a set of integers, the
// only kinds that can carry a tag.
func (v value) numeric() bool { return v.k == kRange || v.k == kSet || v.k == kPred }

// rng returns the best known integer range of v.
func (v value) rng() (int64, int64) {
	switch v.k {
	case kRange:
		return v.lo, v.hi
	case kSet:
		if len(v.set) > 0 {
			return int64(v.set[0]), int64(v.set[len(v.set)-1])
		}
	case kPred:
		return 0, 1
	}
	return negInf, posInf
}

func (v value) eq(w value) bool {
	if v.k != w.k || v.lo != w.lo || v.hi != w.hi || v.param != w.param {
		return false
	}
	if v.k == kSet {
		if len(v.set) != len(w.set) {
			return false
		}
		for i := range v.set {
			if v.set[i] != w.set[i] {
				return false
			}
		}
	}
	if v.k == kPred || v.k == kDiff {
		return v.p == w.p
	}
	return true
}

type relop uint8

const (
	rLt relop = iota
	rLtu
	rEq
	rNe
)

type locKind uint8

const (
	locNone locKind = iota
	locReg
	locSlot
)

// loc names a storage location holding an operand at predicate-creation
// time; gen must still match at branch time for refinement to be sound.
type loc struct {
	kind locKind
	reg  isa.Reg
	off  int64
	gen  uint64
}

type operand struct {
	v    value
	locs [2]loc
}

type pred struct {
	rel  relop
	neg  bool
	a, b operand
}

type cell struct {
	v   value
	gen uint64
	// src remembers the exact frame slot this register value was loaded
	// from, so predicates can refine the slot, not just the scratch.
	src loc
}

type pcon struct {
	lo int64
	ne []int64
}

type state struct {
	regs  [isa.NumRegs]cell
	slots slotSet
	pcons [numArgRegs]pcon
}

// slot is the cell stored at one entry-relative frame offset.
type slot struct {
	off int64
	c   cell
}

// slotSet holds a state's frame slots sorted by offset, so cloning a state
// copies them with one allocation.
type slotSet []slot

// find returns the index of off, or where it would be inserted.
func (ss slotSet) find(off int64) (int, bool) {
	return slices.BinarySearchFunc(ss, off, func(s slot, off int64) int { return cmp.Compare(s.off, off) })
}

func (st *state) clone() *state {
	ns := &state{regs: st.regs, slots: slices.Clone(st.slots), pcons: st.pcons}
	for i := range ns.pcons {
		ns.pcons[i].ne = append([]int64(nil), st.pcons[i].ne...)
	}
	return ns
}

// interp carries the per-function interpretation context.
type interp struct {
	exe        *linker.Executable
	fi         *FuncInfo
	gs         *globalStores
	pv         *provenance
	optimistic bool
	insts      []isa.Inst
	gen        uint64

	// collection-phase accumulators
	collecting bool
	touched    []Interval
	paramTouch [numArgRegs][]Interval
	paramTags  [numArgRegs][]tag // parallel to paramTouch
	blockMust  bool
}

func (ip *interp) nextGen() uint64 { ip.gen++; return ip.gen }

// joinValue is the lattice join.
func joinValue(a, b value) value {
	if a.eq(b) {
		return a
	}
	switch {
	case a.k == kSP && b.k == kSP:
		return value{k: kSP, lo: minI(a.lo, b.lo), hi: maxI(a.hi, b.hi)}
	case a.k == kParam && b.k == kParam && a.param == b.param && a.lo == b.lo:
		return a
	case a.k == kSet && b.k == kSet:
		u := unionSets(a.set, b.set)
		if len(u) <= maxSetSize {
			return value{k: kSet, set: u}
		}
		fallthrough
	default:
		alo, ahi := a.rng()
		blo, bhi := b.rng()
		if a.k == kSP || b.k == kSP || a.k == kParam || b.k == kParam ||
			a.k == kTop || b.k == kTop || a.k == kDiff || b.k == kDiff {
			return topV()
		}
		return rangeV(minI(alo, blo), maxI(ahi, bhi))
	}
}

const maxSetSize = 16

func unionSets(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	return out
}

// joinInto merges src into dst, reporting whether dst changed. widen pushes
// growing range bounds to infinity to force convergence.
func (ip *interp) joinInto(dst, src *state, widen bool) bool {
	changed := false
	for r := range dst.regs {
		nv := ip.join(&dst.regs[r].v, &src.regs[r].v)
		if widen {
			nv = widenValue(dst.regs[r].v, nv)
		}
		if !nv.eq(dst.regs[r].v) {
			dst.regs[r] = cell{v: nv, gen: ip.nextGen()}
			changed = true
		} else if dst.regs[r].gen != src.regs[r].gen || dst.regs[r].src != src.regs[r].src {
			// Same value from a different write: refresh identity so stale
			// predicate locations cannot refine it.
			if dst.regs[r].gen != src.regs[r].gen {
				dst.regs[r] = cell{v: nv, gen: ip.nextGen()}
			}
		}
	}
	// Both slot sets are sorted: one merge walk keeps the offsets src also
	// holds, compacting dst in place.
	kept, j := dst.slots[:0], 0
	for _, d := range dst.slots {
		for j < len(src.slots) && src.slots[j].off < d.off {
			j++
		}
		if j == len(src.slots) || src.slots[j].off != d.off {
			changed = true
			continue
		}
		dc, sc := d.c, src.slots[j].c
		nv := ip.join(&dc.v, &sc.v)
		if widen {
			nv = widenValue(dc.v, nv)
		}
		if !nv.eq(dc.v) {
			d.c = cell{v: nv, gen: ip.nextGen()}
			changed = true
		} else if dc.gen != sc.gen {
			d.c = cell{v: nv, gen: ip.nextGen()}
		}
		kept = append(kept, d)
	}
	dst.slots = kept
	for i := range dst.pcons {
		if src.pcons[i].lo < dst.pcons[i].lo {
			dst.pcons[i].lo = src.pcons[i].lo
			changed = true
		}
		ne := intersectNe(dst.pcons[i].ne, src.pcons[i].ne)
		if len(ne) != len(dst.pcons[i].ne) {
			dst.pcons[i].ne = ne
			changed = true
		}
	}
	return changed
}

func widenValue(old, nv value) value {
	if old.k != nv.k {
		return nv
	}
	switch nv.k {
	case kRange, kSP:
		lo, hi := nv.lo, nv.hi
		if lo < old.lo {
			lo = negInf
		}
		if hi > old.hi {
			hi = posInf
		}
		return value{k: nv.k, lo: lo, hi: hi, tag: nv.tag, htag: nv.htag}
	}
	return nv
}

func intersectNe(a, b []int64) []int64 {
	var out []int64
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	return out
}

func minI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func satAdd(a, b int64) int64 {
	if a == negInf || b == negInf {
		return negInf
	}
	if a == posInf || b == posInf {
		return posInf
	}
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		if b > 0 {
			return posInf
		}
		return negInf
	}
	return s
}

// globalStores accumulates, across all functions, the absolute data ranges
// the program may store to, so loads from initialized data can be proven
// read-only (the soundness condition for seeing through jalr tables).
type globalStores struct {
	stores []Interval
	wild   bool
	loads  []Interval
}

func (gs *globalStores) conflicts() bool {
	if len(gs.loads) == 0 {
		return false
	}
	if gs.wild {
		return true
	}
	for _, l := range gs.loads {
		for _, s := range gs.stores {
			if l.Lo < s.Hi && s.Lo < l.Hi {
				return true
			}
		}
	}
	return false
}

// interpFunc runs the fixpoint plus a final collection pass over one
// function, filling fi's Touched/Calls/Transfers/... fields.
func interpFunc(exe *linker.Executable, fi *FuncInfo, gs *globalStores, pv *provenance, optimistic bool) {
	fi.Exact = true
	ip := &interp{exe: exe, fi: fi, gs: gs, pv: pv, optimistic: optimistic}
	start := fi.Addr - exe.TextBase
	n := int(fi.Size) / isa.InstSize
	ip.insts = make([]isa.Inst, n)
	for i := 0; i < n; i++ {
		ip.insts[i] = isa.DecodeBytes(exe.Text[start+uint64(i*isa.InstSize):])
	}
	pv.checkSites(fi, ip.insts)
	if len(fi.Blocks) == 0 || n == 0 {
		fi.Touched = nil
		return
	}

	// The fixpoint keeps one state per CFG *edge* (depth-1 trace
	// partitioning): each block is re-interpreted from every predecessor's
	// edge-state separately, so a short-circuit join followed by a branch on
	// the merged condition still prunes per-path — the infeasible
	// predecessor simply contributes nothing to the refined out-edge.
	nb := len(fi.Blocks)
	const entryPred = -1
	ins := make([]map[int]*state, nb)
	ins[0] = map[int]*state{entryPred: entryState()}
	joins := make([]map[int]int, nb)
	inQueue := make([]bool, nb)
	queue := []int{0}
	inQueue[0] = true
	visits := 0
	budget := 400 * nb
	if budget < 4000 {
		budget = 4000
	}
	for len(queue) > 0 {
		// Lowest block index first approximates reverse postorder on the
		// address-ordered blocks the code generator emits.
		bi := 0
		for i := range queue {
			if queue[i] < queue[bi] {
				bi = i
			}
		}
		b := queue[bi]
		queue = append(queue[:bi], queue[bi+1:]...)
		inQueue[b] = false
		preds := make([]int, 0, len(ins[b]))
		for p := range ins[b] {
			preds = append(preds, p)
		}
		sort.Ints(preds)
		for _, p := range preds {
			visits++
			if visits > budget {
				fi.note("abstract interpretation budget exceeded")
				return
			}
			outs := ip.transfer(fi.Blocks[b], ins[b][p].clone())
			for _, o := range outs {
				s := o.succ
				if ins[s] == nil {
					ins[s] = map[int]*state{}
				}
				if cur := ins[s][b]; cur == nil {
					// Every edgeOut state is a fresh copy no one else holds.
					ins[s][b] = o.st
				} else {
					if joins[s] == nil {
						joins[s] = map[int]int{}
					}
					joins[s][b]++
					if !ip.joinInto(cur, o.st, joins[s][b] > 8) {
						continue
					}
				}
				if !inQueue[s] {
					queue = append(queue, s)
					inQueue[s] = true
				}
			}
		}
	}

	// Collection pass over the stable states, one visit per block from the
	// join of its edge-states.
	ip.collecting = true
	for b, edges := range ins {
		if len(edges) == 0 {
			continue
		}
		preds := make([]int, 0, len(edges))
		for p := range edges {
			preds = append(preds, p)
		}
		sort.Ints(preds)
		st := edges[preds[0]].clone()
		for _, p := range preds[1:] {
			ip.joinInto(st, edges[p], false)
		}
		ip.blockMust = fi.Blocks[b].MustExec
		ip.transfer(fi.Blocks[b], st)
	}
	ip.finalize()
}

func entryState() *state {
	st := &state{}
	for r := range st.regs {
		st.regs[r] = cell{v: topV()}
	}
	st.regs[isa.SP] = cell{v: value{k: kSP, lo: 0, hi: 0}}
	for i := 0; i < numArgRegs; i++ {
		st.regs[isa.A0+isa.Reg(i)] = cell{v: value{k: kParam, param: int32(i)}}
		st.pcons[i].lo = negInf
	}
	return st
}

type edgeOut struct {
	succ int
	st   *state
}

// read returns the cell of a register, with R0 hardwired to zero.
func (st *state) read(r isa.Reg) cell {
	if r == isa.R0 {
		return cell{v: constV(0)}
	}
	return st.regs[r]
}

func (ip *interp) write(st *state, r isa.Reg, v value) {
	if r == isa.R0 {
		return
	}
	st.regs[r] = cell{v: v, gen: ip.nextGen()}
}

func (ip *interp) writeFrom(st *state, r isa.Reg, v value, src loc) {
	if r == isa.R0 {
		return
	}
	st.regs[r] = cell{v: v, gen: ip.nextGen(), src: src}
}

// transfer interprets one block from its in-state, returning per-successor
// out-states (with branch refinement applied on conditional edges).
func (ip *interp) transfer(b *Block, st *state) []edgeOut {
	fi := ip.fi
	n := int((b.End - b.Start) / uint64(isa.InstSize))
	firstIdx := int(b.Start-fi.Addr) / isa.InstSize
	for i := 0; i < n; i++ {
		in := ip.insts[firstIdx+i]
		pc := b.Start + uint64(i*isa.InstSize)
		last := i == n-1
		if last {
			switch {
			case in.Op.IsBranch():
				return ip.branchOuts(b, st, in)
			case in.Op == isa.OpJmp:
				if ip.collecting {
					target := uint64(int64(pc) + int64(isa.InstSize) + int64(in.Imm)*isa.InstSize)
					fi.Transfers = append(fi.Transfers, Transfer{PC: pc, Target: target, MustExec: b.MustExec, targetTag: ip.pv.codeTag(fi.Addr)})
				}
				return succStates(b, st)
			case in.Op == isa.OpJalr && in.Rd == isa.R0:
				if rv := st.read(isa.RV).v; rv.k == kSP {
					ip.escapeSP(rv, "frame pointer returned to caller")
				} else if rv.k == kParam {
					ip.paramEscape(int(rv.param))
				}
				return nil
			case in.Op == isa.OpHalt:
				return nil
			}
		}
		ip.step(st, in, pc)
		if last {
			return succStates(b, st)
		}
	}
	return succStates(b, st)
}

func succStates(b *Block, st *state) []edgeOut {
	outs := make([]edgeOut, 0, len(b.Succs))
	for i, s := range b.Succs {
		o := st
		if i > 0 {
			o = st.clone()
		}
		outs = append(outs, edgeOut{succ: s, st: o})
	}
	return outs
}

// branchOuts handles a conditional branch terminator, refining each edge.
func (ip *interp) branchOuts(b *Block, st *state, in isa.Inst) []edgeOut {
	if ip.collecting {
		pc := b.End - uint64(isa.InstSize)
		ip.fi.CondBranches = append(ip.fi.CondBranches, pc)
	}
	if len(b.Succs) == 0 {
		return nil
	}
	// Successor 0 is the taken edge, successor 1 (when present and distinct)
	// the fallthrough, matching buildCFG's ordering.
	outs := succStates(b, st)
	if len(outs) != 2 {
		return outs
	}
	a := st.read(in.Rs1)
	c := st.read(in.Rs2)
	dec, ok := evalBranch(in.Op, a.v, c.v)
	if !ok || !(ip.nullCheck(a.v, c.v) || ip.nullCheck(c.v, a.v)) {
		ip.compare(a.v, c.v)
	}
	// A branch whose outcome is decided statically keeps only the feasible
	// edge; the other predecessor path contributes no state downstream.
	if ok {
		if dec {
			return outs[:1]
		}
		return outs[1:]
	}
	switch in.Op {
	case isa.OpBne, isa.OpBeq:
		takenIsTrue := in.Op == isa.OpBne
		if in.Rs2 == isa.R0 && (a.v.k == kPred || a.v.k == kDiff) {
			// kDiff is the raw xor of a comparison: nonzero exactly when its
			// rNe predicate holds, so the same assumption applies.
			ip.assume(outs[0].st, a.v.p, takenIsTrue)
			ip.assume(outs[1].st, a.v.p, !takenIsTrue)
			return outs
		}
		// Direct value test against a constant (or two ranges).
		p := &pred{rel: rEq, a: operandFor(st, in.Rs1, a), b: operandFor(st, in.Rs2, c)}
		ip.assume(outs[0].st, p, in.Op == isa.OpBeq)
		ip.assume(outs[1].st, p, in.Op != isa.OpBeq)
	case isa.OpBlt, isa.OpBge:
		p := &pred{rel: rLt, a: operandFor(st, in.Rs1, a), b: operandFor(st, in.Rs2, c)}
		ip.assume(outs[0].st, p, in.Op == isa.OpBlt)
		ip.assume(outs[1].st, p, in.Op != isa.OpBlt)
	case isa.OpBltu, isa.OpBgeu:
		p := &pred{rel: rLtu, a: operandFor(st, in.Rs1, a), b: operandFor(st, in.Rs2, c)}
		ip.assume(outs[0].st, p, in.Op == isa.OpBltu)
		ip.assume(outs[1].st, p, in.Op != isa.OpBltu)
	}
	return outs
}

// evalBranch decides a branch statically when the operand ranges allow it.
func evalBranch(op isa.Op, a, b value) (taken, ok bool) {
	alo, ahi := a.rng()
	blo, bhi := b.rng()
	if a.k == kSP || a.k == kParam || a.k == kDiff || b.k == kSP || b.k == kParam || b.k == kDiff {
		return false, false
	}
	switch op {
	case isa.OpBeq:
		if a.isConst() && b.isConst() {
			return a.lo == b.lo, true
		}
		if ahi < blo || bhi < alo {
			return false, true
		}
	case isa.OpBne:
		if a.isConst() && b.isConst() {
			return a.lo != b.lo, true
		}
		if ahi < blo || bhi < alo {
			return true, true
		}
	case isa.OpBlt:
		if ahi < blo {
			return true, true
		}
		if alo >= bhi {
			return false, true
		}
	case isa.OpBge:
		if alo >= bhi {
			return true, true
		}
		if ahi < blo {
			return false, true
		}
	case isa.OpBltu, isa.OpBgeu:
		if alo < 0 || blo < 0 {
			return false, false
		}
		if op == isa.OpBltu {
			if ahi < blo {
				return true, true
			}
			if alo >= bhi {
				return false, true
			}
		} else {
			if alo >= bhi {
				return true, true
			}
			if ahi < blo {
				return false, true
			}
		}
	}
	return false, false
}

// operandFor snapshots a register operand with its refinement locations.
func operandFor(st *state, r isa.Reg, c cell) operand {
	op := operand{v: c.v}
	if r != isa.R0 {
		op.locs[0] = loc{kind: locReg, reg: r, gen: c.gen}
		if c.src.kind == locSlot {
			op.locs[1] = c.src
		}
	}
	return op
}

// settlePred replaces every cell holding exactly this predicate object with
// its now-known constant value, so later branches on copies of the condition
// become statically decidable (the short-circuit || / && lowerings).
func (ip *interp) settlePred(st *state, p *pred, truth bool) {
	for r := range st.regs {
		v := st.regs[r].v
		if (v.k == kPred && v.p == p) || (v.k == kDiff && v.p == p && !truth) {
			// A kDiff cell is the raw xor: known only when the equality
			// holds (diff == 0, i.e. its rNe pred is false).
			st.regs[r] = cell{v: constV(b2i(v.k == kPred && truth)), gen: ip.nextGen()}
		}
	}
	for i := range st.slots {
		v := st.slots[i].c.v
		if (v.k == kPred && v.p == p) || (v.k == kDiff && v.p == p && !truth) {
			st.slots[i].c = cell{v: constV(b2i(v.k == kPred && truth)), gen: ip.nextGen()}
		}
	}
}

// decideInner propagates a decided boolean test into a nested predicate:
// if a cell compared against a constant is itself a predicate (or a raw xor
// difference), the comparison decides that inner predicate too.
func (ip *interp) decideInner(st *state, v, other value, eq bool) {
	if !other.isConst() {
		return
	}
	c := other.lo
	switch v.k {
	case kPred:
		switch {
		case eq && (c == 0 || c == 1):
			ip.assume(st, v.p, c == 1)
		case !eq && c == 0:
			ip.assume(st, v.p, true)
		case !eq && c == 1:
			ip.assume(st, v.p, false)
		}
	case kDiff:
		if c == 0 {
			// diff == 0 exactly when the underlying rNe predicate is false.
			ip.assume(st, v.p, !eq)
		}
	}
}

// assume refines st under "p is truth".
func (ip *interp) assume(st *state, p *pred, truth bool) {
	if p == nil {
		return
	}
	ip.settlePred(st, p, truth)
	if p.neg {
		truth = !truth
	}
	alo, ahi := p.a.v.rng()
	blo, bhi := p.b.v.rng()
	nalo, nahi, nblo, nbhi := alo, ahi, blo, bhi
	switch p.rel {
	case rEq:
		if truth {
			nalo, nahi = maxI(alo, blo), minI(ahi, bhi)
			nblo, nbhi = nalo, nahi
			if p.b.v.isConst() {
				ip.refineParamEq(st, p.a.v, p.b.v.lo)
			}
			if p.a.v.isConst() {
				ip.refineParamEq(st, p.b.v, p.a.v.lo)
			}
			ip.decideInner(st, p.a.v, p.b.v, true)
			ip.decideInner(st, p.b.v, p.a.v, true)
		} else {
			nalo, nahi = trimNe(alo, ahi, p.b.v)
			nblo, nbhi = trimNe(blo, bhi, p.a.v)
			if p.b.v.isConst() {
				ip.refineParamNe(st, p.a.v, p.b.v.lo)
			}
			if p.a.v.isConst() {
				ip.refineParamNe(st, p.b.v, p.a.v.lo)
			}
			ip.decideInner(st, p.a.v, p.b.v, false)
			ip.decideInner(st, p.b.v, p.a.v, false)
		}
	case rNe:
		ip.assume(st, &pred{rel: rEq, a: p.a, b: p.b}, !truth)
		return
	case rLt, rLtu:
		if p.rel == rLtu && (alo < 0 || blo < 0) {
			return // unsigned refinement only on provably nonnegative ranges
		}
		if truth {
			nahi = minI(ahi, satAdd(bhi, -1))
			nblo = maxI(blo, satAdd(alo, 1))
		} else {
			nalo = maxI(alo, blo)
			nbhi = minI(bhi, ahi)
			ip.refineParamLo(st, p.a.v, blo)
		}
		if truth {
			ip.refineParamLo(st, p.b.v, satAdd(alo, 1))
		}
	}
	ip.applyRange(st, p.a, nalo, nahi)
	ip.applyRange(st, p.b, nblo, nbhi)
}

func trimNe(lo, hi int64, other value) (int64, int64) {
	if !other.isConst() {
		return lo, hi
	}
	k := other.lo
	if lo == k && lo < hi {
		lo++
	}
	if hi == k && lo < hi {
		hi--
	}
	return lo, hi
}

func (ip *interp) refineParamEq(st *state, v value, k int64) {
	if v.k == kParam && v.param < numArgRegs {
		want := satAdd(k, -v.lo)
		if want > st.pcons[v.param].lo {
			st.pcons[v.param].lo = want
		}
	}
}

func (ip *interp) refineParamNe(st *state, v value, k int64) {
	if v.k == kParam && v.param < numArgRegs {
		ex := satAdd(k, -v.lo)
		for _, e := range st.pcons[v.param].ne {
			if e == ex {
				return
			}
		}
		if len(st.pcons[v.param].ne) < 8 {
			st.pcons[v.param].ne = append(st.pcons[v.param].ne, ex)
		}
	}
}

func (ip *interp) refineParamLo(st *state, v value, lo int64) {
	if v.k == kParam && v.param < numArgRegs && lo != negInf {
		want := satAdd(lo, -v.lo)
		if want > st.pcons[v.param].lo {
			st.pcons[v.param].lo = want
		}
	}
}

// applyRange writes a refined range back to an operand's locations, if the
// location still holds the predicate-time value.
func (ip *interp) applyRange(st *state, op operand, lo, hi int64) {
	if op.v.k != kRange || (lo == op.v.lo && hi == op.v.hi) {
		return
	}
	nv := rangeV(lo, hi)
	if nv.k == kTop {
		return
	}
	nv.tag, nv.htag = op.v.tag, op.v.htag
	for _, l := range op.locs {
		switch l.kind {
		case locReg:
			if st.regs[l.reg].gen == l.gen {
				st.regs[l.reg] = cell{v: nv, gen: ip.nextGen(), src: st.regs[l.reg].src}
			}
		case locSlot:
			if i, ok := st.slots.find(l.off); ok && st.slots[i].c.gen == l.gen {
				st.slots[i].c = cell{v: nv, gen: ip.nextGen()}
			}
		}
	}
}

// step interprets one non-terminator instruction.
func (ip *interp) step(st *state, in isa.Inst, pc uint64) {
	a := st.read(in.Rs1)
	b := st.read(in.Rs2)
	switch in.Op {
	case isa.OpNop, isa.OpInvalid:
		// nothing
	case isa.OpAddi:
		if in.Rd == isa.SP && in.Rs1 == isa.SP {
			// Prologue/epilogue SP adjustment.
			if ip.fi.Frame == 0 && in.Imm < 0 && a.v.k == kSP && a.v.lo == 0 && a.v.hi == 0 {
				ip.fi.Frame = int64(-in.Imm)
			}
			ip.write(st, isa.SP, ip.add(a.v, constV(int64(in.Imm))))
			return
		}
		ip.write(st, in.Rd, ip.add(a.v, constV(int64(in.Imm))))
	case isa.OpAdd:
		ip.write(st, in.Rd, ip.add(a.v, b.v))
	case isa.OpSub:
		ip.write(st, in.Rd, ip.sub(a.v, b.v))
	case isa.OpLui:
		v := constV(int64(uint64(uint16(in.Imm)) << 16))
		if li, ok := ip.pv.text[pc]; ok {
			v = v.withTag(hiTag | tag(li))
		}
		ip.write(st, in.Rd, v)
	case isa.OpOri:
		imm := int64(uint16(in.Imm))
		if v, ok := ip.lo16(a.v, imm, pc); ok {
			ip.write(st, in.Rd, v)
			return
		}
		if a.v.isConst() {
			ip.write(st, in.Rd, constV(a.v.lo|imm))
		} else if lo, hi := a.v.rng(); lo >= 0 && imm >= 0 && hi != posInf {
			ip.write(st, in.Rd, rangeV(lo, hi|imm))
		} else {
			ip.write(st, in.Rd, topV())
		}
	case isa.OpAndi:
		ip.opaque(a.v, "andi")
		imm := int64(uint16(in.Imm))
		if a.v.isConst() {
			ip.write(st, in.Rd, constV(a.v.lo&imm))
		} else {
			ip.write(st, in.Rd, rangeV(0, imm))
		}
	case isa.OpXori:
		ip.opaque(a.v, "xori")
		imm := int64(uint16(in.Imm))
		switch {
		case a.v.k == kPred && imm == 1:
			np := *a.v.p
			np.neg = !np.neg
			ip.write(st, in.Rd, value{k: kPred, p: &np})
		case a.v.isConst():
			ip.write(st, in.Rd, constV(a.v.lo^imm))
		default:
			ip.write(st, in.Rd, topV())
		}
	case isa.OpXor:
		if a.v.isConst() && b.v.isConst() {
			ip.opaque(a.v, "xor")
			ip.opaque(b.v, "xor")
			ip.write(st, in.Rd, constV(a.v.lo^b.v.lo))
		} else {
			ip.compare(a.v, b.v)
			p := &pred{rel: rNe, a: operandFor(st, in.Rs1, a), b: operandFor(st, in.Rs2, b)}
			ip.write(st, in.Rd, value{k: kDiff, p: p})
		}
	case isa.OpAnd, isa.OpOr:
		ip.opaque(a.v, "and/or")
		ip.opaque(b.v, "and/or")
		if a.v.isConst() && b.v.isConst() {
			if in.Op == isa.OpAnd {
				ip.write(st, in.Rd, constV(a.v.lo&b.v.lo))
			} else {
				ip.write(st, in.Rd, constV(a.v.lo|b.v.lo))
			}
		} else {
			ip.write(st, in.Rd, topV())
		}
	case isa.OpSlt, isa.OpSltu:
		ip.compare(a.v, b.v)
		switch {
		case in.Op == isa.OpSltu && in.Rs1 == isa.R0 && b.v.k == kDiff:
			// sltu d, r0, (a^b) — the Ne lowering.
			ip.write(st, in.Rd, value{k: kPred, p: b.v.p})
		case a.v.isConst() && b.v.isConst():
			lt := a.v.lo < b.v.lo
			if in.Op == isa.OpSltu {
				lt = uint64(a.v.lo) < uint64(b.v.lo)
			}
			ip.write(st, in.Rd, constV(b2i(lt)))
		default:
			rel := rLt
			if in.Op == isa.OpSltu {
				rel = rLtu
			}
			p := &pred{rel: rel, a: operandFor(st, in.Rs1, a), b: operandFor(st, in.Rs2, b)}
			ip.write(st, in.Rd, value{k: kPred, p: p})
		}
	case isa.OpSlti, isa.OpSltiu:
		ip.compare(a.v, value{})
		imm := int64(in.Imm)
		if in.Op == isa.OpSltiu {
			imm = int64(uint16(in.Imm))
		}
		switch {
		case in.Op == isa.OpSltiu && imm == 1 && a.v.k == kDiff:
			// sltiu d, (a^b), 1 — the Eq lowering.
			np := *a.v.p
			np.rel = rEq
			ip.write(st, in.Rd, value{k: kPred, p: &np})
		case a.v.isConst():
			lt := a.v.lo < imm
			if in.Op == isa.OpSltiu {
				lt = uint64(a.v.lo) < uint64(imm)
			}
			ip.write(st, in.Rd, constV(b2i(lt)))
		default:
			rel := rLt
			if in.Op == isa.OpSltiu {
				rel = rLtu
			}
			p := &pred{rel: rel, a: operandFor(st, in.Rs1, a), b: operand{v: constV(imm)}}
			ip.write(st, in.Rd, value{k: kPred, p: p})
		}
	case isa.OpSlli:
		ip.opaque(a.v, "shift")
		sh := uint(in.Imm) & 63
		lo, hi := a.v.rng()
		if a.v.isConst() {
			ip.write(st, in.Rd, constV(a.v.lo<<sh))
		} else if a.v.k == kRange && lo >= 0 && sh < 32 && hi < 1<<31 {
			ip.write(st, in.Rd, rangeV(lo<<sh, hi<<sh))
		} else {
			ip.write(st, in.Rd, topV())
		}
	case isa.OpSrli:
		ip.opaque(a.v, "shift")
		if a.v.isConst() {
			ip.write(st, in.Rd, constV(int64(uint64(a.v.lo)>>(uint(in.Imm)&63))))
		} else if lo, hi := a.v.rng(); a.v.k == kRange && lo >= 0 {
			sh := uint(in.Imm) & 63
			ip.write(st, in.Rd, rangeV(lo>>sh, hi>>sh))
		} else {
			ip.write(st, in.Rd, topV())
		}
	case isa.OpSrai:
		ip.opaque(a.v, "shift")
		if a.v.isConst() {
			ip.write(st, in.Rd, constV(a.v.lo>>(uint(in.Imm)&63)))
		} else if a.v.k == kRange {
			sh := uint(in.Imm) & 63
			ip.write(st, in.Rd, rangeV(shiftFloor(a.v.lo, sh), shiftFloor(a.v.hi, sh)))
		} else {
			ip.write(st, in.Rd, topV())
		}
	case isa.OpSll, isa.OpSrl, isa.OpSra:
		ip.opaque(a.v, "shift")
		ip.opaque(b.v, "shift")
		if a.v.isConst() && b.v.isConst() {
			sh := uint(b.v.lo) & 63
			switch in.Op {
			case isa.OpSll:
				ip.write(st, in.Rd, constV(a.v.lo<<sh))
			case isa.OpSrl:
				ip.write(st, in.Rd, constV(int64(uint64(a.v.lo)>>sh)))
			default:
				ip.write(st, in.Rd, constV(a.v.lo>>sh))
			}
		} else {
			ip.write(st, in.Rd, topV())
		}
	case isa.OpMul:
		ip.opaque(a.v, "multiply")
		ip.opaque(b.v, "multiply")
		ip.write(st, in.Rd, mulValues(a.v, b.v))
	case isa.OpMuli:
		ip.opaque(a.v, "multiply")
		ip.write(st, in.Rd, mulValues(a.v, constV(int64(in.Imm))))
	case isa.OpDiv, isa.OpRem:
		ip.opaque(a.v, "divide")
		ip.opaque(b.v, "divide")
		if a.v.isConst() && b.v.isConst() && b.v.lo != 0 {
			if in.Op == isa.OpDiv {
				ip.write(st, in.Rd, constV(a.v.lo/b.v.lo))
			} else {
				ip.write(st, in.Rd, constV(a.v.lo%b.v.lo))
			}
		} else {
			ip.write(st, in.Rd, topV())
		}
	case isa.OpJal:
		target := uint64(in.Imm) * uint64(isa.InstSize)
		ip.call(st, pc, target, false, ip.jalTag(pc, target))
	case isa.OpJalr:
		if in.Rd != isa.R0 {
			ip.indirectCall(st, pc, a)
		}
		// jalr r0 mid-block cannot come out of the code generator (returns
		// end blocks); ignore defensively.
	case isa.OpSys:
		ip.write(st, isa.RV, topV())
	default:
		if in.Op.IsLoad() {
			ip.load(st, in, a)
		} else if in.Op.IsStore() {
			ip.store(st, in, a, b)
		}
	}
}

func shiftFloor(x int64, sh uint) int64 {
	if x == negInf || x == posInf {
		return x
	}
	return x >> sh
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func addValues(a, b value) value {
	// Keep pointer-typed values pointer-typed under offset arithmetic.
	if b.k == kSP || b.k == kParam {
		a, b = b, a
	}
	blo, bhi := b.rng()
	switch a.k {
	case kSP:
		if b.k == kSP {
			return topV()
		}
		// Any integer offset (even unbounded) keeps the frame typing; the
		// in-frame clip bounds the reachable bytes.
		return value{k: kSP, lo: satAdd(a.lo, blo), hi: satAdd(a.hi, bhi)}
	case kParam:
		if b.isConst() {
			return value{k: kParam, param: a.param, lo: satAdd(a.lo, blo), hi: satAdd(a.hi, bhi)}
		}
		// Pointer parameters indexed by a bounded expression stay
		// param-relative so the access can be attributed to the pointed-to
		// slot; the offset range rides in lo/hi.
		return value{k: kParam, param: a.param, lo: satAdd(a.lo, blo), hi: satAdd(a.hi, bhi)}
	case kRange:
		if b.k == kRange || b.k == kSet || b.k == kPred {
			return rangeV(satAdd(a.lo, blo), satAdd(a.hi, bhi))
		}
	case kSet:
		if b.isConst() {
			out := make([]uint64, len(a.set))
			for i, m := range a.set {
				out[i] = uint64(int64(m) + blo)
			}
			return value{k: kSet, set: out}
		}
		alo, ahi := a.rng()
		if b.k == kRange {
			return rangeV(satAdd(alo, blo), satAdd(ahi, bhi))
		}
	}
	return topV()
}

func subValues(a, b value) value {
	blo, bhi := b.rng()
	switch {
	case a.k == kSP && b.k == kSP:
		return rangeV(satAdd(a.lo, -b.hi), satAdd(a.hi, -b.lo))
	case a.k == kSP:
		return value{k: kSP, lo: satAdd(a.lo, -bhi), hi: satAdd(a.hi, -blo)}
	case a.k == kParam && b.k != kSP && b.k != kParam:
		return value{k: kParam, param: a.param, lo: satAdd(a.lo, -bhi), hi: satAdd(a.hi, -blo)}
	case a.k == kRange && b.k == kRange:
		return rangeV(satAdd(a.lo, -bhi), satAdd(a.hi, -blo))
	}
	return topV()
}

func mulValues(a, b value) value {
	if a.isConst() && b.isConst() {
		return constV(a.lo * b.lo)
	}
	if b.isConst() {
		a, b = b, a
	}
	if a.isConst() && b.k == kRange {
		k := a.lo
		if k == 0 {
			return constV(0)
		}
		if k > 0 && k < 1<<20 {
			return rangeV(satMul(b.lo, k), satMul(b.hi, k))
		}
		if k < 0 && k > -(1<<20) {
			return rangeV(satMul(b.hi, k), satMul(b.lo, k))
		}
	}
	return topV()
}

func satMul(a, k int64) int64 {
	if a == negInf || a == posInf {
		if (a == posInf) == (k > 0) {
			return posInf
		}
		return negInf
	}
	p := a * k
	if a != 0 && p/a != k {
		if (a > 0) == (k > 0) {
			return posInf
		}
		return negInf
	}
	return p
}

// segKind classifies an absolute address range.
type segKind uint8

const (
	segUnknown segKind = iota
	segData            // initialized data or bss
)

// segOf classifies a load or store address. Data and bss move together
// between relinks, so an address into either keeps its classification; an
// absolute address or one into text may not.
func (ip *interp) segOf(addr value) segKind {
	ip.dataAddress(addr)
	lo := addr.lo
	dbase := int64(ip.exe.DataBase)
	dend := int64(ip.exe.BSSBase + ip.exe.BSSSize)
	if lo >= dbase && lo < dend {
		// Derived from a data symbol: the segment axiom keeps it in data
		// even when the upper bound is unknown.
		return segData
	}
	return segUnknown
}

// load interprets one load instruction.
func (ip *interp) load(st *state, in isa.Inst, base cell) {
	size := int64(in.Op.MemBytes())
	addr := ip.add(base.v, constV(int64(in.Imm)))
	switch addr.k {
	case kSP:
		ip.touchSP(st, addr, size)
		if addr.lo == addr.hi && size == 8 {
			if i, ok := st.slots.find(addr.lo); ok {
				c := st.slots[i].c
				ip.writeFrom(st, in.Rd, c.v, loc{kind: locSlot, off: addr.lo, gen: c.gen})
				return
			}
		}
		ip.write(st, in.Rd, topV())
	case kParam:
		ip.touchParam(addr, size)
		ip.write(st, in.Rd, topV())
	case kRange:
		if ip.segOf(addr) == segData {
			ip.write(st, in.Rd, ip.dataLoad(addr, size))
			return
		}
		ip.write(st, in.Rd, topV())
		ip.topAccess(st, "load")
	default:
		ip.write(st, in.Rd, topV())
		ip.topAccess(st, "load")
	}
}

// dataLoad reads initialized data optimistically, returning the loaded
// word(s) as a constant or small set. Soundness is re-established after all
// functions are interpreted: if any store may alias a read datum, the whole
// analysis re-runs with dataLoad degraded to Top.
func (ip *interp) dataLoad(addr value, size int64) value {
	if !ip.optimistic || size != 8 {
		return topV()
	}
	dbase := int64(ip.exe.DataBase)
	dend := dbase + int64(len(ip.exe.Data))
	lo, hi := addr.lo, addr.hi
	if lo%8 != 0 || lo < dbase || hi == posInf || hi+size > dend || hi-lo > 512 {
		return topV()
	}
	var words []uint64
	var wt tag
	for a := lo; a <= hi; a += 8 {
		off := a - dbase
		var w uint64
		for i := int64(0); i < 8; i++ {
			w |= uint64(ip.exe.Data[off+i]) << (8 * i)
		}
		words = append(words, w)
		if len(words) > maxSetSize {
			return topV()
		}
		if t := ip.pv.dataWordTag(uint64(a)); a == lo {
			wt = t
		} else if t != wt {
			ip.pv.mark("data load mixes addresses of different regions")
		}
	}
	if ip.collecting {
		ip.gs.loads = append(ip.gs.loads, Interval{Lo: lo, Hi: hi + size})
	}
	sort.Slice(words, func(i, j int) bool { return words[i] < words[j] })
	dedup := words[:1]
	for _, w := range words[1:] {
		if w != dedup[len(dedup)-1] {
			dedup = append(dedup, w)
		}
	}
	if len(dedup) == 1 {
		return constV(int64(dedup[0])).withTag(wt)
	}
	return value{k: kSet, set: dedup}.withTag(wt)
}

// store interprets one store instruction.
func (ip *interp) store(st *state, in isa.Inst, base, val cell) {
	size := int64(in.Op.MemBytes())
	addr := ip.add(base.v, constV(int64(in.Imm)))
	switch addr.k {
	case kSP:
		ip.touchSP(st, addr, size)
		if addr.lo == addr.hi && size == 8 {
			c := cell{v: val.v, gen: ip.nextGen()}
			if i, ok := st.slots.find(addr.lo); ok {
				st.slots[i].c = c
			} else {
				st.slots = slices.Insert(st.slots, i, slot{off: addr.lo, c: c})
			}
			return
		}
		// Imprecise or narrow store: weak update, invalidate overlap.
		lo, hi := addr.lo, satAdd(addr.hi, size)
		st.slots = slices.DeleteFunc(st.slots, func(s slot) bool { return s.off+8 > lo && s.off < hi })
		ip.storeEscape(val.v, "frame pointer stored with imprecise address")
	case kParam:
		ip.touchParam(addr, size)
		ip.storeEscape(val.v, "frame pointer stored through pointer argument")
	case kRange:
		if ip.segOf(addr) == segData {
			if ip.collecting {
				hi := addr.hi
				if hi == posInf {
					hi = int64(ip.exe.BSSBase + ip.exe.BSSSize)
				}
				ip.gs.stores = append(ip.gs.stores, Interval{Lo: addr.lo, Hi: hi + size})
			}
		} else {
			ip.topAccess(st, "store")
			if ip.collecting {
				ip.gs.wild = true
			}
		}
		ip.storeEscape(val.v, "frame pointer stored to memory")
	default:
		ip.topAccess(st, "store")
		if ip.collecting {
			ip.gs.wild = true
		}
		ip.storeEscape(val.v, "frame pointer stored to memory")
	}
}

// storeEscape classifies a stored value: a frame pointer leaving the frame
// discipline is a hard escape; a parameter is only conditionally one — the
// condition resolves against what callers actually pass.
func (ip *interp) storeEscape(v value, why string) {
	switch v.k {
	case kSP:
		ip.escapeSP(v, why)
	case kParam:
		ip.paramEscape(int(v.param))
	}
}

func (ip *interp) paramEscape(p int) {
	if ip.collecting && p >= 0 && p < numArgRegs {
		ip.fi.paramEsc[p] = true
	}
}

// touchSP records a frame access at entry-relative offsets.
func (ip *interp) touchSP(st *state, addr value, size int64) {
	if !ip.collecting {
		return
	}
	hi := satAdd(addr.hi, size)
	ip.touched = append(ip.touched, Interval{Lo: addr.lo, Hi: hi})
}

// touchParam records an access through a pointer argument.
func (ip *interp) touchParam(addr value, size int64) {
	if !ip.collecting || addr.param >= numArgRegs {
		return
	}
	hi := satAdd(addr.hi, size)
	ip.paramTouch[addr.param] = append(ip.paramTouch[addr.param], Interval{Lo: addr.lo, Hi: hi})
	t, ok := addr.uniform()
	if !ok {
		ip.pv.mark("pointer argument indexed by addresses of two regions")
	}
	ip.paramTags[addr.param] = append(ip.paramTags[addr.param], t)
}

// topAccess marks a memory access through an untyped pointer. It only
// costs exactness if a frame pointer escaped somewhere in the program — the
// resolution happens in Analyze once all functions are done.
func (ip *interp) topAccess(st *state, what string) {
	if ip.collecting {
		ip.fi.Notes = append(ip.fi.Notes, topAccessMarker+what)
	}
}

// topAccessMarker prefixes provisional notes that finalize() either deletes
// (no frame pointer escaped: the access cannot be a stack access) or turns
// into a real inexactness reason.
const topAccessMarker = "\x00top-access:"

func (ip *interp) escapeSP(v value, why string) {
	_ = v
	if !ip.collecting {
		return
	}
	ip.fi.Notes = append(ip.fi.Notes, escapeMarker+why)
}

const escapeMarker = "\x00sp-escape:"

// call interprets a (direct or resolved-target) call site.
func (ip *interp) call(st *state, pc, target uint64, indirect bool, tt tag) {
	if ip.collecting {
		c := Call{PC: pc, Target: target, Indirect: indirect, MustExec: ip.blockMust, targetTag: tt}
		ip.args(st, &c)
		ip.fi.Calls = append(ip.fi.Calls, c)
		if !indirect {
			ip.fi.Transfers = append(ip.fi.Transfers, Transfer{PC: pc, Target: target, MustExec: ip.blockMust, targetTag: tt})
		}
	}
	ip.clobberCall(st)
}

// args records a call site's abstract arguments and the regions of the
// addresses among them.
func (ip *interp) args(st *state, c *Call) {
	for i := 0; i < numArgRegs; i++ {
		v := st.read(isa.A0 + isa.Reg(i)).v
		c.Args[i] = ip.argOf(st, v)
		if k := c.Args[i].Kind; k == ArgConst || k == ArgParam {
			if t, ok := v.uniform(); !ok || t&hiTag != 0 {
				ip.pv.mark("address of two regions or upper address half passed to a callee")
			}
			c.argTags[i] = v.tag
		}
	}
}

func (ip *interp) argOf(st *state, v value) Arg {
	switch {
	case v.isConst():
		return Arg{Kind: ArgConst, Const: v.lo}
	case v.k == kParam && v.lo == v.hi:
		pc := st.pcons[v.param]
		return Arg{
			Kind: ArgParam, Param: int(v.param), Delta: v.lo,
			ParamLo: pc.lo, ParamNe: append([]int64(nil), pc.ne...),
		}
	case v.k == kSP && v.lo == v.hi:
		return Arg{Kind: ArgSP, SPOff: v.lo}
	case v.k == kSP:
		ip.fi.Notes = append(ip.fi.Notes, escapeMarker+"frame pointer with imprecise offset passed to callee")
		return Arg{Kind: ArgUnknown}
	default:
		return Arg{Kind: ArgUnknown}
	}
}

// clobberCall applies the ABI: caller-saved registers die, callee-saved and
// SP survive; frame slots a passed-in pointer can reach may be rewritten.
func (ip *interp) clobberCall(st *state) {
	var spArgs []int64
	for i := 0; i < numArgRegs; i++ {
		v := st.read(isa.A0 + isa.Reg(i)).v
		if v.k == kSP {
			spArgs = append(spArgs, v.lo)
		}
	}
	for _, r := range callerSaved {
		st.regs[r] = cell{v: topV(), gen: ip.nextGen()}
	}
	for _, off := range spArgs {
		i, _ := st.slots.find(off) // slots are sorted: drop the suffix at or above off
		st.slots = st.slots[:i]
	}
}

var callerSaved = []isa.Reg{
	isa.RV, isa.A0, isa.A1, isa.A2, isa.A3, isa.A4, isa.A5,
	isa.T0, isa.T1, isa.T2, isa.T3, isa.T4, isa.T5, isa.T6, isa.T7,
	isa.AT, isa.RA,
}

// indirectCall interprets a jalr call site with abstract target t.
func (ip *interp) indirectCall(st *state, pc uint64, t cell) {
	switch {
	case t.v.isConst():
		ip.call(st, pc, uint64(t.v.lo), true, ip.codeTarget(t.v))
		return
	case t.v.k == kSet:
		tt := ip.codeTarget(t.v)
		if ip.collecting {
			c := Call{PC: pc, Indirect: true, MustExec: ip.blockMust, targetTag: tt}
			ip.args(st, &c)
			for _, target := range t.v.set {
				c.Target = target
				ip.fi.Calls = append(ip.fi.Calls, c)
			}
		}
		ip.clobberCall(st)
		return
	}
	if ip.collecting {
		ip.fi.UnresolvedJalr = append(ip.fi.UnresolvedJalr, pc)
		for i := 0; i < numArgRegs; i++ {
			v := st.read(isa.A0 + isa.Reg(i)).v
			if v.k == kSP {
				ip.escapeSP(v, "frame pointer passed at unresolved indirect call")
			} else if v.k == kParam {
				ip.paramEscape(int(v.param))
			}
		}
	}
	ip.clobberCall(st)
}

// finalize clips and merges collected intervals and resolves provisional
// markers into notes.
func (ip *interp) finalize() {
	fi := ip.fi
	var notes []string
	topAccess := false
	for _, n := range fi.Notes {
		switch {
		case len(n) > len(topAccessMarker) && n[:len(topAccessMarker)] == topAccessMarker:
			topAccess = true
		case len(n) > len(escapeMarker) && n[:len(escapeMarker)] == escapeMarker:
			fi.escapes = append(fi.escapes, n[len(escapeMarker):])
		default:
			notes = append(notes, n)
		}
	}
	fi.Notes = notes
	fi.topAccess = topAccess
	fi.Exact = len(notes) == 0 && fi.Exact

	// Clip frame accesses to the frame (the in-frame axiom): an
	// address-taken slot indexed by an unbounded expression still touches
	// at most its own slot, which ends at the frame edge.
	frame := fi.Frame
	var clipped []Interval
	for _, iv := range ip.touched {
		lo, hi := iv.Lo, iv.Hi
		if lo < -frame {
			lo = -frame
		}
		if hi > 0 {
			hi = 0
		}
		if hi > lo {
			// Shift to post-prologue frame offsets to match the footprint
			// extractor's convention.
			clipped = append(clipped, Interval{Lo: lo + frame, Hi: hi + frame})
		}
	}
	fi.Touched = MergeIntervals(clipped)
	for i := range ip.paramTouch {
		var ivs []Interval
		var tags []tag
		for k, iv := range ip.paramTouch[i] {
			lo, hi, t := iv.Lo, iv.Hi, ip.paramTags[i][k]
			if lo == negInf || hi == posInf || hi-lo > maxParamSpan {
				// Unbounded pointer arithmetic: the slot axiom still bounds
				// the access to the pointed-to slot, whose extent the caller
				// clips; record a full-span marker.
				lo, hi, t = 0, maxParamSpan, 0
			}
			if hi > lo {
				ivs = append(ivs, Interval{Lo: lo, Hi: hi})
				tags = append(tags, t)
			}
		}
		fi.ParamTouched[i], fi.paramTags[i] = ip.pv.mergeTagged(ivs, tags)
	}
}

// maxParamSpan caps how far a pointer-argument access may reach; the
// caller clips it to the pointed-to slot's real extent (ending at the frame
// edge) when composing footprints.
const maxParamSpan = int64(1) << 20
