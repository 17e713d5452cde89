package dataflow

import (
	"sort"

	"biaslab/internal/isa"
	"biaslab/internal/linker"
	"biaslab/internal/obj"
)

// Relocation of an analysis between layouts of one program.
//
// The pad and base channels link the same objects in the same order at
// different addresses. Every fact Analyze derives from such an image is
// either independent of where the objects landed (frame intervals,
// exactness, the SCC structure) or an address that moves with one region:
// an object's text, or the data and bss segments, which the linker always
// moves together (function entries, call sites, call targets, address
// arguments). The interpreter therefore tags each bound of an abstract
// value that carries a relocated address with its region, and propagates
// tags only through operations that commute with moving the region: adding
// a plain number, subtracting two addresses of one region, loads through a
// data address and calls through a text address. The first time a tagged
// value meets any other operation the analysis is marked position-dependent,
// and Relocate refuses it.
//
// Joins are the one place where addresses meet plain numbers without being
// used (a scratch register holds a global's address on one path and a small
// integer on the other). A join compares bounds, and the outcome of
// comparing an address with a number of another region holds only while
// the two regions' relative shift stays within some range. The interpreter
// records that range as slack, and Relocate checks that the target layout
// stays inside it.

// tag is the provenance of one bound of a value: zero when no relocated
// address contributed to it, dataTag for an address into data or bss,
// textTag(i) for an address into placement i's text, or hiTag plus a
// landing index for the upper half a lui loaded from a hi16 relocation.
type tag uint32

const (
	dataTag tag = 1
	hiTag   tag = 1 << 31
)

func textTag(object int) tag { return tag(object + 2) }

func (t tag) isText() bool { return t >= 2 && t&hiTag == 0 }

// region reports whether t names a region (not untagged, not a hi half).
func (t tag) region() bool { return t == dataTag || t.isText() }

// tagged reports whether either bound of v carries an address.
func (v value) tagged() bool { return v.tag|v.htag != 0 }

// uniform returns v's tag when both bounds carry the same one.
func (v value) uniform() (tag, bool) { return v.tag, v.tag == v.htag }

func (v value) withTag(t tag) value {
	v.tag, v.htag = t, t
	return v
}

// landing is one applied relocation: the word at addr was patched with
// target, an address in the region tag names.
type landing struct {
	addr, target uint64
	kind         obj.RelocKind
	tag          tag
}

// provenance indexes an image's relocation landings for the interpreter
// and collects what the analysis assumed about absolute addresses.
type provenance struct {
	exe      *linker.Executable
	landings []landing
	// text maps a patched instruction's address to its landing index.
	text map[uint64]int
	// data lists the landings in data, sorted by address.
	data []int
	// funcObj maps a function entry to the index of its defining object.
	funcObj map[uint64]int
	posDep  string
	slack   map[[2]tag][2]int64
}

// newProvenance finds where every relocation of exe landed, from the
// placements of its objects and the addresses of its symbols.
func newProvenance(exe *linker.Executable) *provenance {
	pv := &provenance{exe: exe, text: map[uint64]int{}, funcObj: funcObjects(exe)}
	region := map[string]tag{}
	for i, p := range exe.Placements {
		for _, s := range p.Object.Symbols {
			region[s.Name] = dataTag
			if s.Section == obj.SecText {
				region[s.Name] = textTag(i)
			}
		}
	}
	for _, p := range exe.Placements {
		for _, r := range p.Object.Relocs {
			l := landing{addr: p.Text + r.Offset, target: uint64(int64(exe.Symbols[r.Sym]) + r.Addend), kind: r.Kind, tag: region[r.Sym]}
			if r.Section == obj.SecData {
				l.addr = p.Data + r.Offset
				pv.data = append(pv.data, len(pv.landings))
			} else {
				pv.text[l.addr] = len(pv.landings)
			}
			pv.landings = append(pv.landings, l)
		}
	}
	sort.Slice(pv.data, func(i, j int) bool { return pv.landings[pv.data[i]].addr < pv.landings[pv.data[j]].addr })
	return pv
}

// funcObjects maps each function entry to the placement that defines it.
func funcObjects(exe *linker.Executable) map[uint64]int {
	m := map[uint64]int{}
	for i, p := range exe.Placements {
		for _, s := range p.Object.Symbols {
			if s.Kind == obj.SymFunc && s.Section == obj.SecText {
				m[p.Text+s.Offset] = i
			}
		}
	}
	return m
}

// mark records that the analysis depends on absolute addresses. Reasons
// are constant strings, so the recorded one never depends on map order.
func (pv *provenance) mark(why string) {
	if pv.posDep == "" {
		pv.posDep = why
	}
}

// order records that the interpreter compared x (tagged tx) with y (tagged
// ty). Between two regions the outcome survives relocation only while the
// shift difference d = shift(tx) - shift(ty) keeps the sign of x - y + d,
// so the slack for (tx, ty) narrows to the d that do.
func (pv *provenance) order(x int64, tx tag, y int64, ty tag) {
	if tx == ty || x == negInf || x == posInf || y == negInf || y == posInf {
		return
	}
	if (tx|ty)&hiTag != 0 {
		pv.mark("upper address half compared")
		return
	}
	if tx > ty {
		x, y, tx, ty = y, x, ty, tx
	}
	k := [2]tag{tx, ty}
	if pv.slack == nil {
		pv.slack = map[[2]tag][2]int64{}
	}
	b, ok := pv.slack[k]
	if !ok {
		b = [2]int64{negInf, posInf}
	}
	switch {
	case x > y:
		b[0] = maxI(b[0], satAdd(y-x, 1))
	case x < y:
		b[1] = minI(b[1], satAdd(y-x, -1))
	default:
		b[0], b[1] = maxI(b[0], 0), minI(b[1], 0)
	}
	pv.slack[k] = b
}

// extent returns the address range of a region in this image.
func (pv *provenance) extent(t tag) (lo, hi uint64) {
	if t == dataTag {
		return pv.exe.DataBase, pv.exe.BSSBase + pv.exe.BSSSize
	}
	p := pv.exe.Placements[t-2]
	return p.Text, p.Text + uint64(len(p.Object.Text))
}

// within reports whether the range [lo, hi] lies inside region t.
func (pv *provenance) within(t tag, lo, hi int64) bool {
	if !t.region() {
		return false
	}
	rlo, rhi := pv.extent(t)
	return lo >= int64(rlo) && hi < int64(rhi)
}

// codeTag is the tag of the text region holding the function at entry.
func (pv *provenance) codeTag(entry uint64) tag {
	if object, ok := pv.funcObj[entry]; ok {
		return textTag(object)
	}
	return 0
}

var consumer = map[obj.RelocKind]isa.Op{obj.RelocHi16: isa.OpLui, obj.RelocLo16: isa.OpOri, obj.RelocJal26: isa.OpJal}

// checkSites verifies that every relocation landing inside a function
// patched the instruction that consumes it: hi16 a lui, lo16 an ori and
// jal26 a jal. Any other instruction would read address bits as an opcode
// field or a branch offset.
func (pv *provenance) checkSites(fi *FuncInfo, insts []isa.Inst) {
	for i, in := range insts {
		li, ok := pv.text[fi.Addr+uint64(i*isa.InstSize)]
		if ok && in.Op != consumer[pv.landings[li].kind] {
			pv.mark("relocation patches an instruction that does not consume an address")
		}
	}
}

// dataWordTag returns the tag of the 8-byte data word at addr: the
// landing's region when an Abs64 relocation patched exactly that word. A
// relocation straddling the word marks the analysis position-dependent.
func (pv *provenance) dataWordTag(addr uint64) tag {
	ls := pv.landings
	i := sort.Search(len(pv.data), func(i int) bool { return ls[pv.data[i]].addr+8 > addr })
	if i == len(pv.data) || ls[pv.data[i]].addr >= addr+8 {
		return 0
	}
	if ls[pv.data[i]].addr != addr {
		pv.mark("data load reads part of a relocated word")
		return 0
	}
	return ls[pv.data[i]].tag
}

// Tag propagation. Each helper applies the lattice operation unchanged and
// then decides the result's tags, marking the analysis position-dependent
// when the operation does not commute with moving the regions involved.

// add is addValues with tags: an address plus a plain number is an address
// in the same region, bound by bound.
func (ip *interp) add(a, b value) value {
	v := addValues(a, b)
	x := a
	switch {
	case !a.tagged() && !b.tagged():
		return v
	case a.tagged() && b.tagged():
		ip.pv.mark("two addresses added")
		return v
	case b.tagged():
		x = b
	}
	if (x.tag|x.htag)&hiTag != 0 {
		ip.pv.mark("upper address half used in arithmetic")
		return v
	}
	switch v.k {
	case kRange, kParam:
		// A parameter plus an address is the parameter's value used as
		// an index into a global: its offset bounds carry the address.
		if saturated(v, a, b) {
			ip.pv.mark("address arithmetic overflows")
		}
		v.tag, v.htag = x.tag, x.htag
	case kSet:
		if t, ok := x.uniform(); ok {
			return v.withTag(t)
		}
		ip.pv.mark("address of two regions indexes a table")
	case kTop:
	default:
		ip.pv.mark("address added to a frame or parameter pointer")
	}
	return v
}

// saturated reports whether a finite bound of a + b came out infinite.
func saturated(v, a, b value) bool {
	alo, ahi := bounds(a)
	blo, bhi := bounds(b)
	inf := func(x int64) bool { return x == negInf || x == posInf }
	return (inf(v.lo) && !inf(alo) && !inf(blo)) || (inf(v.hi) && !inf(ahi) && !inf(bhi))
}

// bounds returns v's range, or the offset range of a pointer.
func bounds(v value) (int64, int64) {
	if v.k == kParam || v.k == kSP {
		return v.lo, v.hi
	}
	return v.rng()
}

// sub is subValues with tags: an address minus a plain number stays in its
// region, and two addresses of one region differ by a plain number.
func (ip *interp) sub(a, b value) value {
	v := subValues(a, b)
	switch {
	case !a.tagged() && !b.tagged():
	case !b.tagged() && (a.tag|a.htag)&hiTag == 0:
		if v.k == kRange || v.k == kParam {
			v.tag, v.htag = a.tag, a.htag
		} else if v.k != kTop {
			ip.pv.mark("address subtracted from a frame or parameter pointer")
		}
	case a.tag == b.htag && a.htag == b.tag && a.tag.region() && a.htag.region():
		// Each bound is one region's address minus another address of
		// that region: a plain number.
	default:
		ip.pv.mark("address subtracted from a value outside its region")
	}
	return v
}

// join is joinValue with tags. Joining bounds of different regions is a
// comparison whose outcome holds only within some slack (see order). The
// operands are pointers because the fixpoint joins every register and
// slot of every edge state.
func (ip *interp) join(pa, pb *value) value {
	v := joinValue(*pa, *pb)
	if !pa.tagged() && !pb.tagged() {
		return v
	}
	a, b := *pa, *pb
	if a.k == kParam && b.k == kParam && a.param == b.param {
		// joinValue keeps a exactly when the two offsets' lower bounds
		// agree.
		ip.pv.order(a.lo, a.tag, b.lo, b.tag)
		return v
	}
	if !v.numeric() || !a.numeric() || !b.numeric() {
		return v
	}
	if v.k == kSet {
		if a.tag != b.tag || a.htag != b.htag {
			ip.pv.mark("join of tables from different regions")
		}
		return v.withTag(a.tag)
	}
	alo, ahi := a.rng()
	blo, bhi := b.rng()
	ip.pv.order(alo, a.tag, blo, b.tag)
	ip.pv.order(ahi, a.htag, bhi, b.htag)
	if v.k != kRange {
		return v
	}
	v.tag, v.htag = a.tag, a.htag
	if blo < alo {
		v.tag = b.tag
	}
	if bhi > ahi {
		v.htag = b.htag
	}
	return v
}

// Tagged interval lists. ParamTouched offsets through a parameter that
// indexes a global carry the global's address; these helpers are
// MergeIntervals, shiftMerge and intervalsEqual with one tag per interval,
// recording the comparisons they make between regions as slack. A nil tag
// list means every interval is untagged.

// mergeTagged is MergeIntervals over intervals with tags.
func (pv *provenance) mergeTagged(ivs []Interval, tags []tag) ([]Interval, []tag) {
	if !anyTagged(tags) {
		return MergeIntervals(ivs), nil
	}
	ivs, tags = append([]Interval(nil), ivs...), append([]tag(nil), tags...)
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0; j-- {
			pv.order(ivs[j].Lo, tags[j], ivs[j-1].Lo, tags[j-1])
			if ivs[j].Lo >= ivs[j-1].Lo {
				break
			}
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
			tags[j], tags[j-1] = tags[j-1], tags[j]
		}
	}
	out, otags := ivs[:1], tags[:1]
	for k, iv := range ivs[1:] {
		t, lt := tags[k+1], otags[len(otags)-1]
		last := &out[len(out)-1]
		pv.order(iv.Lo, t, last.Hi, lt)
		if iv.Lo > last.Hi {
			out, otags = append(out, iv), append(otags, t)
			continue
		}
		if t != lt {
			pv.mark("pointer footprints of two regions coalesce")
		}
		pv.order(iv.Hi, t, last.Hi, lt)
		if iv.Hi > last.Hi {
			last.Hi = iv.Hi
		}
	}
	if !anyTagged(otags) {
		otags = nil
	}
	return out, otags
}

func anyTagged(tags []tag) bool {
	for _, t := range tags {
		if t != 0 {
			return true
		}
	}
	return false
}

// shiftMerge adds the callee intervals src, moved by delta, to dst and
// clips them to [0, maxParamSpan], as closeParamTouched composes pointer
// footprints across a call.
func (pv *provenance) shiftMerge(dst []Interval, dtags []tag, src []Interval, stags []tag, delta int64, deltaTag tag) ([]Interval, []tag) {
	out := append([]Interval(nil), dst...)
	tags := append([]tag(nil), dtags...)
	if dtags == nil {
		tags = make([]tag, len(dst))
	}
	for k, iv := range src {
		t := deltaTag
		if stags != nil && stags[k] != 0 {
			if t != 0 {
				pv.mark("two addresses added")
			}
			t = stags[k]
		}
		lo, hi := satAdd(iv.Lo, delta), satAdd(iv.Hi, delta)
		lt, ht := t, t
		pv.order(lo, t, 0, 0)
		if lo < 0 {
			lo, lt = 0, 0
		}
		pv.order(hi, t, maxParamSpan, 0)
		if hi > maxParamSpan {
			hi, ht = maxParamSpan, 0
		}
		pv.order(hi, ht, lo, lt)
		if hi > lo {
			if lt != ht {
				pv.mark("pointer footprint clipped at an address")
			}
			out = append(out, Interval{Lo: lo, Hi: hi})
			tags = append(tags, lt)
		}
	}
	return pv.mergeTagged(out, tags)
}

// intervalsEqual compares two tagged interval lists bound by bound.
func (pv *provenance) intervalsEqual(a []Interval, at []tag, b []Interval, bt []tag) bool {
	if len(a) != len(b) {
		return false
	}
	tagOf := func(ts []tag, i int) tag {
		if ts == nil {
			return 0
		}
		return ts[i]
	}
	for i := range a {
		ta, tb := tagOf(at, i), tagOf(bt, i)
		pv.order(a[i].Lo, ta, b[i].Lo, tb)
		pv.order(a[i].Hi, ta, b[i].Hi, tb)
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lo16 completes a hi16/lo16 pair at an ori: when the relocation landing
// at pc patched the ori and its operand is the upper half a lui loaded for
// the same target, the result is that target, tagged with its region. Any
// other ori reading an address, or a lo16 without its hi16 half, marks the
// analysis; ok is false and the caller applies the plain ori.
func (ip *interp) lo16(a value, imm int64, pc uint64) (v value, ok bool) {
	li, landed := ip.pv.text[pc]
	if !landed {
		ip.opaque(a, "ori")
		return value{}, false
	}
	l := ip.pv.landings[li]
	if t, uni := a.uniform(); uni && a.isConst() && t&hiTag != 0 {
		h := ip.pv.landings[t&^hiTag]
		if h.kind == obj.RelocHi16 && l.kind == obj.RelocLo16 && h.target == l.target &&
			h.tag == l.tag && a.lo|imm == int64(l.target) {
			return constV(a.lo | imm).withTag(l.tag), true
		}
	}
	ip.pv.mark("lo16 relocation without its hi16 half")
	return value{}, false
}

// opaque marks an address reaching an operation that does not commute with
// moving it (masks, shifts, multiplication and the like).
func (ip *interp) opaque(v value, op string) {
	if v.tagged() {
		ip.pv.mark("address used as an operand of " + op)
	}
}

// compare checks the operands of a comparison: its outcome moves with the
// layout unless neither is an address or both address one region.
func (ip *interp) compare(a, b value) {
	ta, ua := a.uniform()
	tb, ub := b.uniform()
	if !ua || !ub || ta != tb || ta&hiTag != 0 {
		ip.pv.mark("address compared with a constant or an address in another region")
	}
}

// nullCheck reports whether comparing address a with b has the same
// outcome in every layout: b is the constant zero and a lies inside its own
// region, so it is positive wherever the region lands.
func (ip *interp) nullCheck(a, b value) bool {
	t, ok := a.uniform()
	return ok && b.isConst() && b.lo == 0 && !b.tagged() && a.k == kRange && ip.pv.within(t, a.lo, a.hi)
}

// dataAddress marks a memory access whose address is not a data address:
// which segment an absolute or text address falls in can change between
// layouts.
func (ip *interp) dataAddress(addr value) {
	if t, ok := addr.uniform(); !ok || t != dataTag {
		ip.pv.mark("memory access through an absolute or text address")
	}
}

// jalTag returns the region of a jal's target: the jal26 relocation landing
// at pc must have patched in exactly target, an address inside a text
// region. A jal to a fixed address would not move with the code.
func (ip *interp) jalTag(pc, target uint64) tag {
	if li, ok := ip.pv.text[pc]; ok {
		l := ip.pv.landings[li]
		if l.kind == obj.RelocJal26 && l.target == target && l.tag.isText() && ip.pv.within(l.tag, int64(target), int64(target)) {
			return l.tag
		}
	}
	ip.pv.mark("call to an absolute address")
	return 0
}

// codeTarget checks a jalr's resolved targets: all inside one text region.
func (ip *interp) codeTarget(v value) tag {
	lo, hi := v.rng()
	t, ok := v.uniform()
	if !ok || !t.isText() || !ip.pv.within(t, lo, hi) {
		ip.pv.mark("indirect call through an absolute or data address")
	}
	return t
}

// shifts holds, for a pair of relinked images, how far each region moved.
type shifts struct {
	text []int64 // per placement
	data int64   // every data and bss region moves together
	fn   map[uint64]int64
}

func (s *shifts) of(t tag) int64 {
	switch {
	case t == dataTag:
		return s.data
	case t.isText():
		return s.text[t-2]
	}
	return 0
}

func (s *shifts) addr(a uint64) uint64 { return uint64(int64(a) + s.fn[a]) }

// layoutShifts checks that to is a relink of from's objects, in the same
// order, with function order preserved and the alignments the interpreter
// relied on intact, and returns the region shifts.
func layoutShifts(from, to *linker.Executable) (*shifts, bool) {
	if len(from.Placements) == 0 || len(from.Placements) != len(to.Placements) ||
		len(from.Funcs) != len(to.Funcs) || len(from.Data) != len(to.Data) || from.BSSSize != to.BSSSize {
		return nil, false
	}
	s := &shifts{text: make([]int64, len(from.Placements)), fn: map[uint64]int64{}}
	s.data = int64(to.DataBase) - int64(from.DataBase)
	if s.data%8 != 0 || int64(to.BSSBase)-int64(from.BSSBase) != s.data {
		return nil, false
	}
	for i, p := range from.Placements {
		q := to.Placements[i]
		if p.Object != q.Object || int64(q.Data)-int64(p.Data) != s.data || int64(q.BSS)-int64(p.BSS) != s.data {
			return nil, false
		}
		s.text[i] = int64(q.Text) - int64(p.Text)
		if s.text[i]%isa.InstSize != 0 {
			return nil, false
		}
	}
	funcObj := funcObjects(from)
	for i := range from.Funcs {
		f, g := &from.Funcs[i], &to.Funcs[i]
		if f.Name != g.Name || f.Size != g.Size {
			return nil, false
		}
		if i > 0 && (f.Addr <= from.Funcs[i-1].Addr || g.Addr <= to.Funcs[i-1].Addr) {
			return nil, false
		}
		object, ok := funcObj[f.Addr]
		if !ok || int64(g.Addr)-int64(f.Addr) != s.text[object] {
			return nil, false
		}
		s.fn[f.Addr] = s.text[object]
	}
	return s, true
}

// PositionDependent returns why some fact of info depends on absolute
// addresses, so Relocate refuses it, or "" when every fact moves with the
// region it addresses.
func (info *Info) PositionDependent() string { return info.posDep }

// Relocate derives the analysis of layout to from info, the analysis of
// layout from. It succeeds only when to links the same objects as from in
// the same order with function order preserved, every region moved by a
// multiple of the alignment the interpreter relied on (4 bytes for text, 8
// for data and bss, which move together) and within the slack the
// analysis recorded, and Analyze proved that no fact of info depends on an
// absolute address. The result is then exactly what Analyze(to) returns.
// Position-independent parts (frame intervals, notes, SCC bounds) are
// shared with info and must be treated as read-only.
func Relocate(info *Info, from, to *linker.Executable) (*Info, bool) {
	if info.posDep != "" {
		return nil, false
	}
	s, ok := layoutShifts(from, to)
	if !ok {
		return nil, false
	}
	var slack map[[2]tag][2]int64
	if info.slack != nil {
		slack = make(map[[2]tag][2]int64, len(info.slack))
		for k, b := range info.slack {
			d := s.of(k[0]) - s.of(k[1])
			if d < b[0] || d > b[1] {
				return nil, false
			}
			slack[k] = [2]int64{satAdd(b[0], -d), satAdd(b[1], -d)}
		}
	}
	out := &Info{
		Funcs:        make(map[uint64]*FuncInfo, len(info.Funcs)),
		Order:        make([]uint64, len(info.Order)),
		SCCID:        make(map[uint64]int, len(info.SCCID)),
		Recursive:    info.Recursive,
		Bounds:       info.Bounds,
		Reachable:    make(map[uint64]bool, len(info.Reachable)),
		AllReachable: info.AllReachable,
		MustExec:     make(map[uint64]bool, len(info.MustExec)),
		slack:        slack,
	}
	for i, a := range info.Order {
		out.Order[i] = s.addr(a)
	}
	for a, id := range info.SCCID {
		out.SCCID[s.addr(a)] = id
	}
	for a, r := range info.Reachable {
		out.Reachable[s.addr(a)] = r
	}
	for a, m := range info.MustExec {
		out.MustExec[s.addr(a)] = m
	}
	for a, fi := range info.Funcs {
		out.Funcs[s.addr(a)] = fi.relocate(s.fn[a], s)
	}
	return out, true
}

// relocate copies fi with every address moved: its own code by d; call and
// transfer targets, address arguments and pointer footprints indexed by an
// address by their tags' shifts.
func (fi *FuncInfo) relocate(d int64, s *shifts) *FuncInfo {
	at := func(a uint64) uint64 { return uint64(int64(a) + d) }
	nf := *fi
	nf.Addr = at(fi.Addr)
	if fi.Blocks != nil {
		nf.Blocks = make([]*Block, len(fi.Blocks))
		for i, b := range fi.Blocks {
			nb := *b
			nb.Start, nb.End = at(b.Start), at(b.End)
			nf.Blocks[i] = &nb
		}
	}
	if fi.Calls != nil {
		nf.Calls = make([]Call, len(fi.Calls))
		for i, c := range fi.Calls {
			c.PC = at(c.PC)
			c.Target = uint64(int64(c.Target) + s.of(c.targetTag))
			for j := range c.Args {
				if c.Args[j].Kind == ArgParam {
					c.Args[j].Delta += s.of(c.argTags[j])
				} else {
					c.Args[j].Const += s.of(c.argTags[j])
				}
			}
			nf.Calls[i] = c
		}
	}
	if fi.Transfers != nil {
		nf.Transfers = make([]Transfer, len(fi.Transfers))
		for i, t := range fi.Transfers {
			t.PC = at(t.PC)
			t.Target = uint64(int64(t.Target) + s.of(t.targetTag))
			nf.Transfers[i] = t
		}
	}
	for i, tags := range fi.paramTags {
		if tags == nil {
			continue
		}
		nf.ParamTouched[i] = make([]Interval, len(tags))
		for k, iv := range fi.ParamTouched[i] {
			d := s.of(tags[k])
			nf.ParamTouched[i][k] = Interval{Lo: iv.Lo + d, Hi: iv.Hi + d}
		}
	}
	nf.CondBranches = relocatePCs(fi.CondBranches, at)
	nf.UnresolvedJalr = relocatePCs(fi.UnresolvedJalr, at)
	return &nf
}

func relocatePCs(pcs []uint64, at func(uint64) uint64) []uint64 {
	if pcs == nil {
		return nil
	}
	out := make([]uint64, len(pcs))
	for i, pc := range pcs {
		out[i] = at(pc)
	}
	return out
}
