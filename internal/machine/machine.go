// Package machine simulates the three evaluation platforms. A Machine is a
// functional executor for the biaslab ISA coupled to a cycle-approximate
// timing model: caches, TLBs, a branch predictor, fetch alignment, and the
// load/store hazards (line splits, 4 KiB aliasing) through which the paper's
// two bias channels — stack displacement from the environment and code
// placement from link order — turn into measurable cycle differences.
//
// Execution has two interchangeable engines. The production engine
// (runThreaded, see threaded.go) runs a predecoded micro-op array (see
// predecode.go) with immediates pre-extended and branch targets
// precomputed; the reference engine (stepRef) fetches, decodes and
// interprets one raw instruction word at a time. The reference engine also
// runs whatever the production engine leaves: the last stretch of each
// budget slice, faults, instrumented runs, and configs whose fetch block is
// not a power of two. RunReference runs a program on it alone. Both charge
// the identical timing model, and the differential tests assert they
// produce bit-identical counters and checksums — the repo's guarantee that
// no throughput optimization ever changes a measured value.
package machine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"biaslab/internal/isa"
	"biaslab/internal/loader"
)

// Machine is one simulated CPU plus its memory system state.
type Machine struct {
	cfg  Config
	l1i  *Cache
	l1d  *Cache
	l2   *Cache
	itlb *TLB
	dtlb *TLB
	pred *Predictor

	mem  []byte
	regs [isa.NumRegs]int64
	pc   uint64

	textBase uint64
	textSize uint64
	// uops is the predecoded text segment: either a shared, immutable
	// cache entry (images that retain their executable) or uopScratch.
	uops       []uop
	uopScratch []uop

	counters Counters
	issueAcc int

	// Store buffer for 4 KiB aliasing: a ring of recent store addresses
	// with the instruction count at which they were issued. sbKeyCount
	// tracks how many buffered stores carry each partial-address key so a
	// load with no key collision skips the ring scan entirely.
	sbAddr     []uint64
	sbSeq      []uint64
	sbPos      int
	sbKeyCount [512]uint16
	// sbKeyPage is, per key, the common page of every buffered store with
	// that key, or mixedPage once two pages collide on it. A load whose page
	// equals the common page cannot stall (aliasing requires differing
	// pages), which covers the dominant spill/reload pattern.
	sbKeyPage [512]uint64
	// sbKeySeq is the issue sequence of the most recent buffered store with
	// each key. The ring evicts in FIFO (= sequence) order, so while a key's
	// count is nonzero its most recent store is still buffered — which lets
	// a single-page key answer the alias window test without scanning.
	sbKeySeq [512]uint64

	// fetchBits is log2(FetchBlockBytes) when it is a power of two
	// (fetchPot), letting the front end use a shift instead of a divide.
	fetchBits uint
	fetchPot  bool

	// Last-reference memos: a line or page that was just referenced is MRU
	// in its set, so re-referencing it is a guaranteed hit that changes no
	// replacement state — the model call can be skipped entirely (only the
	// hit statistic is maintained). dMemoOK gates the L1D memo off when a
	// next-line prefetch into a one-set cache could evict the memoized line.
	lastDLine uint64
	lastDPage uint64
	lastILine uint64
	lastIPage uint64
	dMemoOK   bool

	lastFetchBlock uint64

	output   []int64
	checksum uint64
	exitCode int64
	halted   bool

	profilingOn bool
	prof        *profiler
	tracer      Tracer
}

// Result is the outcome of one complete program run.
type Result struct {
	Machine  string
	Counters Counters
	Output   []int64
	Checksum uint64
	ExitCode int64
	// Profile holds per-function attribution when profiling was enabled.
	Profile Profile
}

// New builds a machine with cfg.
func New(cfg Config) *Machine {
	m := &Machine{
		cfg:  cfg,
		l1i:  NewCache(cfg.L1I),
		l1d:  NewCache(cfg.L1D),
		l2:   NewCache(cfg.L2),
		itlb: NewTLB(cfg.ITLBEntries, cfg.PageSize),
		dtlb: NewTLB(cfg.DTLBEntries, cfg.PageSize),
		pred: NewPredictor(cfg.Predictor),
	}
	if cfg.StoreBufferDepth > 0 {
		m.sbAddr = make([]uint64, cfg.StoreBufferDepth)
		m.sbSeq = make([]uint64, cfg.StoreBufferDepth)
	}
	if b := cfg.FetchBlockBytes; b > 0 && b&(b-1) == 0 {
		m.fetchBits = log2u(uint64(b))
		m.fetchPot = true
	}
	m.dMemoOK = !cfg.NextLinePrefetch || m.l1d.Sets() > 1
	return m
}

// mixedPage marks a store-buffer key whose entries span multiple pages.
const mixedPage = ^uint64(0)

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// EnableProfiling turns per-function cycle attribution on or off for
// subsequent runs. Profiling needs the image's executable for symbols.
func (m *Machine) EnableProfiling(on bool) { m.profilingOn = on }

// Counters returns the counters of the last run.
func (m *Machine) Counters() *Counters { return &m.counters }

// DefaultMaxInstructions bounds a run; benchmark workloads stay far below.
const DefaultMaxInstructions = 4 << 30

// ErrStepBudget is the watchdog's verdict: the run retired its entire
// instruction budget without halting. Callers distinguish it from execution
// faults with errors.Is — a budget trip usually means a runaway or
// mis-sized workload, not a broken program image.
var ErrStepBudget = errors.New("machine: instruction budget exhausted")

// cancelPollInstrs is how many instructions execute between context checks
// in RunCtx. At simulator speed (tens of MIPS) this bounds cancellation
// latency to well under a millisecond while keeping the poll out of the
// per-instruction hot path: the check piggybacks on the budget slicing, so
// the inner loops are identical to the uncancellable ones.
const cancelPollInstrs = 1 << 16

// Run executes the loaded image to completion (SysExit/halt) and returns
// the result. Machine state is reset at entry, so a Machine can be reused
// across runs; maxInstr of 0 applies DefaultMaxInstructions.
func (m *Machine) Run(img *loader.Image, maxInstr uint64) (*Result, error) {
	return m.RunCtx(context.Background(), img, maxInstr)
}

// RunCtx is Run with cooperative cancellation: the step-budget watchdog
// always bounds the run, and when ctx carries a deadline or cancel, the
// machine additionally polls it every cancelPollInstrs retired instructions
// and abandons the run with ctx's error. Timing state is charged
// identically either way — a run that completes under a cancellable
// context is bit-identical to one under context.Background().
func (m *Machine) RunCtx(ctx context.Context, img *loader.Image, maxInstr uint64) (*Result, error) {
	m.resetState(img)
	m.uops = predecodedFor(img, m.uopScratch)
	if img.Exe == nil {
		m.uopScratch = m.uops // keep the scratch array for reuse
	}
	if maxInstr == 0 {
		maxInstr = DefaultMaxInstructions
	}
	cancellable := ctx.Done() != nil
	instrumented := m.tracer != nil || m.prof != nil
	for !m.halted {
		limit := maxInstr
		if cancellable {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if l := m.counters.Instructions + cancelPollInstrs; l < limit {
				limit = l
			}
		}
		if err := m.runSlice(limit, instrumented); err != nil {
			return nil, err
		}
		if !m.halted && m.counters.Instructions >= maxInstr {
			return nil, m.budgetErr(maxInstr)
		}
	}
	return m.result(), nil
}

// RunReference executes the image with the retained straightforward
// fetch-decode-execute interpreter: one raw instruction word decoded per
// step, no predecoding, no memoization. It exists as the oracle for
// differential testing of the optimized engine and must produce
// bit-identical counters, output and checksum. Tracing and profiling are
// ignored in this mode.
func (m *Machine) RunReference(img *loader.Image, maxInstr uint64) (*Result, error) {
	m.resetState(img)
	m.prof = nil
	m.uops = nil
	if maxInstr == 0 {
		maxInstr = DefaultMaxInstructions
	}
	for !m.halted {
		if m.counters.Instructions >= maxInstr {
			return nil, m.budgetErr(maxInstr)
		}
		if err := m.stepRef(); err != nil {
			return nil, err
		}
	}
	return m.result(), nil
}

func (m *Machine) budgetErr(maxInstr uint64) error {
	return fmt.Errorf("%w: %d instructions retired, pc=%#x", ErrStepBudget, maxInstr, m.pc)
}

func (m *Machine) result() *Result {
	res := &Result{
		Machine:  m.cfg.Name,
		Counters: m.counters,
		Output:   m.output,
		Checksum: m.checksum,
		ExitCode: m.exitCode,
	}
	if m.prof != nil {
		res.Profile = m.prof.profile()
	}
	return res
}

// resetState reinitializes every piece of architectural and timing state
// for img. The cache, TLB and predictor resets are O(1) generation bumps.
func (m *Machine) resetState(img *loader.Image) {
	m.l1i.Reset()
	m.l1d.Reset()
	m.l2.Reset()
	m.itlb.Reset()
	m.dtlb.Reset()
	m.pred.Reset()
	m.counters = Counters{}
	m.issueAcc = 0
	m.lastFetchBlock = ^uint64(0)
	for i := range m.sbAddr {
		m.sbAddr[i] = ^uint64(0)
		m.sbSeq[i] = 0
	}
	m.sbPos = 0
	m.sbKeyCount = [512]uint16{}
	m.sbKeyPage = [512]uint64{}
	m.sbKeySeq = [512]uint64{}
	m.lastDLine = ^uint64(0)
	m.lastDPage = ^uint64(0)
	m.lastILine = ^uint64(0)
	m.lastIPage = ^uint64(0)
	m.output = nil
	m.checksum = 0
	m.exitCode = 0
	m.halted = false

	m.mem = img.Mem
	m.textBase = img.TextBase
	m.textSize = img.TextSize
	m.pc = img.Entry
	m.regs = [isa.NumRegs]int64{}
	m.regs[isa.SP] = int64(img.SP)
	m.prof = nil
	if m.profilingOn && img.Exe != nil {
		m.prof = newProfiler(img.Exe)
		m.prof.enter(img.Entry)
	}
}

// charge adds penalty cycles.
func (m *Machine) charge(c uint64) { m.counters.Cycles += c }

// issue accounts the base cost of one instruction.
func (m *Machine) issue() {
	m.counters.Instructions++
	m.issueAcc++
	if m.issueAcc >= m.cfg.IssueWidth {
		m.counters.Cycles++
		m.issueAcc = 0
	}
}

// fetch models the front end at fetch-block granularity.
func (m *Machine) fetch(pc uint64) {
	var block uint64
	if m.fetchPot {
		block = pc >> m.fetchBits
	} else {
		block = pc / uint64(m.cfg.FetchBlockBytes)
	}
	if block == m.lastFetchBlock {
		return
	}
	m.lastFetchBlock = block
	m.counters.FetchBlocks++
	if page := pc >> m.itlb.pageBits; page == m.lastIPage {
		m.itlb.hits++
	} else {
		m.lastIPage = page
		if !m.itlb.Access(pc) {
			m.counters.ITLBMisses++
			m.charge(m.cfg.Penalties.ITLBMiss)
		}
	}
	if line := pc >> m.l1i.lineBits; line == m.lastILine {
		m.l1i.hits++
	} else {
		m.lastILine = line
		if !m.l1i.Access(pc) {
			m.counters.L1IMisses++
			if m.l2.Access(pc) {
				m.charge(m.cfg.Penalties.L1Miss)
			} else {
				m.counters.L2Misses++
				m.charge(m.cfg.Penalties.L2Miss)
			}
		}
	}
}

// dataAccess models the memory system for a load or store of size bytes.
func (m *Machine) dataAccess(addr uint64, size int, isLoad bool) {
	if page := addr >> m.dtlb.pageBits; page == m.lastDPage {
		m.dtlb.hits++
	} else {
		m.lastDPage = page
		if !m.dtlb.Access(addr) {
			m.counters.DTLBMisses++
			m.charge(m.cfg.Penalties.DTLBMiss)
		}
	}
	m.dcacheRef(addr)
	lineBits := m.l1d.lineBits
	if addr>>lineBits != (addr+uint64(size)-1)>>lineBits {
		m.counters.SplitAccesses++
		m.charge(m.cfg.Penalties.SplitAccess)
		m.dcacheRef(addr + uint64(size) - 1)
	}
	if isLoad {
		m.counters.Loads++
		m.alias4K(addr)
	} else {
		m.counters.Stores++
		m.recordStore(addr)
	}
}

// dcacheRef charges one data-cache reference at a.
func (m *Machine) dcacheRef(a uint64) {
	if line := a >> m.l1d.lineBits; m.dMemoOK {
		if line == m.lastDLine {
			m.l1d.hits++
			return
		}
		m.lastDLine = line
	}
	if !m.l1d.Access(a) {
		m.counters.L1DMisses++
		if m.l2.Access(a) {
			m.charge(m.cfg.Penalties.L1Miss)
		} else {
			m.counters.L2Misses++
			m.charge(m.cfg.Penalties.L2Miss)
		}
		if m.cfg.NextLinePrefetch {
			m.l1d.Prefetch(a + uint64(m.l1d.LineSize()))
		}
	}
}

// alias4K models the memory-disambiguation replay: a load whose address
// matches an in-flight store in bits [11:3] but differs above pays a
// penalty, because the partial-address matcher flags a false dependence.
func (m *Machine) alias4K(addr uint64) {
	if len(m.sbAddr) == 0 {
		return
	}
	key := addr >> 3 & 0x1ff
	// Occupancy filters: no buffered store shares this key, or every store
	// that does sits on the load's own page (the spill/reload pattern) — in
	// either case the precise scan below cannot find a match.
	if m.sbKeyCount[key] == 0 || m.sbKeyPage[key] == addr>>12 {
		return
	}
	if m.sbKeyPage[key] != mixedPage {
		// Single-page key on a different page than the load: every buffered
		// store with this key matches the partial-address tag, so the stall
		// decision reduces to recency, and the key's most recent store (still
		// buffered — FIFO eviction) decides the window test.
		if m.counters.Instructions-m.sbKeySeq[key] <= m.cfg.AliasWindow {
			m.counters.Alias4KStalls++
			m.charge(m.cfg.Penalties.Alias4K)
		}
		return
	}
	if m.counters.Instructions-m.sbKeySeq[key] > m.cfg.AliasWindow {
		// Even the key's most recent store is outside the window, so no
		// buffered store with this key can be inside it: skip the scan.
		return
	}
	for i, sa := range m.sbAddr {
		if sa == ^uint64(0) {
			continue
		}
		if m.counters.Instructions-m.sbSeq[i] > m.cfg.AliasWindow {
			continue
		}
		if sa>>3&0x1ff == key && sa>>12 != addr>>12 {
			m.counters.Alias4KStalls++
			m.charge(m.cfg.Penalties.Alias4K)
			return
		}
	}
}

func (m *Machine) recordStore(addr uint64) {
	if len(m.sbAddr) == 0 {
		return
	}
	pos := m.sbPos
	if old := m.sbAddr[pos]; old != ^uint64(0) {
		m.sbKeyCount[old>>3&0x1ff]--
	}
	m.sbAddr[pos] = addr
	m.sbSeq[pos] = m.counters.Instructions
	key := addr >> 3 & 0x1ff
	m.sbKeySeq[key] = m.counters.Instructions
	page := addr >> 12
	if m.sbKeyCount[key] == 0 {
		m.sbKeyPage[key] = page
	} else if m.sbKeyPage[key] != page {
		// Two pages now share the key; scans are required until the key
		// empties out (conservative, never wrong).
		m.sbKeyPage[key] = mixedPage
	}
	m.sbKeyCount[key]++
	pos++
	if pos == len(m.sbAddr) {
		pos = 0
	}
	m.sbPos = pos
}

// control models a taken control transfer to target.
func (m *Machine) control(pc, target uint64) {
	m.counters.TakenBranches++
	m.charge(m.cfg.Penalties.TakenBranch)
	if m.pred.Target(pc, target) {
		m.counters.BTBRedirects++
		m.charge(m.cfg.Penalties.BTBRedirect)
	}
	if target%16 != 0 && m.cfg.Penalties.MisalignedEntry > 0 {
		m.counters.MisalignedTargets++
		m.charge(m.cfg.Penalties.MisalignedEntry)
	}
}

type execError struct {
	pc  uint64
	msg string
}

func (e *execError) Error() string {
	return fmt.Sprintf("machine: at pc=%#x: %s", e.pc, e.msg)
}

func (m *Machine) fail(format string, args ...any) error {
	return &execError{pc: m.pc, msg: fmt.Sprintf(format, args...)}
}

// step executes one instruction with tracing/profiling instrumentation.
func (m *Machine) step() error {
	if m.tracer != nil {
		return m.stepTraced()
	}
	return m.stepProfiled()
}

// stepTraced wraps execution with event reporting (and profiling when both
// are enabled).
func (m *Machine) stepTraced() error {
	seq := m.counters.Instructions
	pc := m.pc
	var inst isa.Inst
	if pc >= m.textBase && pc < m.textBase+m.textSize && pc%uint64(isa.InstSize) == 0 {
		inst = isa.DecodeBytes(m.mem[pc:])
	}
	var memAddr uint64
	if inst.Op.IsLoad() || inst.Op.IsStore() {
		memAddr = uint64(m.regs[inst.Rs1] + int64(inst.Imm))
	}
	var err error
	if m.prof != nil {
		err = m.stepProfiled()
	} else {
		err = m.stepRef()
	}
	m.tracer.Trace(TraceEvent{
		Seq:     seq,
		PC:      pc,
		Inst:    inst,
		Cycles:  m.counters.Cycles,
		MemAddr: memAddr,
		NextPC:  m.pc,
	})
	return err
}

// stepProfiled wraps stepRef with per-function attribution.
func (m *Machine) stepProfiled() error {
	before := m.counters.Cycles
	prevPC := m.pc
	err := m.stepRef()
	// A transfer into another function happens only via call/return
	// (jal/jalr); detect by non-sequential pc movement outside the
	// current fetch neighbourhood and re-resolve.
	if m.pc != prevPC+uint64(isa.InstSize) {
		m.prof.enter(m.pc)
	}
	m.prof.account(m.counters.Cycles - before)
	return err
}

// setReg writes v to r unless r is the hardwired zero register.
func (m *Machine) setReg(r isa.Reg, v int64) {
	if r != isa.R0 {
		m.regs[r] = v
	}
}

// stepRef executes one instruction the straightforward way: decode the raw
// word at pc, then interpret it, recomputing immediates and targets in
// place. It is the reference the differential tests hold runThreaded to,
// and the engine for everything runThreaded leaves: the last stretch of
// each budget slice, faults and off-text control flow, instrumented runs,
// and configs whose fetch block is not a power of two.
func (m *Machine) stepRef() error {
	pc := m.pc
	if pc < m.textBase || pc >= m.textBase+m.textSize || pc%uint64(isa.InstSize) != 0 {
		return m.fail("instruction fetch outside text segment")
	}
	m.fetch(pc)
	in := isa.DecodeBytes(m.mem[pc:])
	m.issue()

	next := pc + uint64(isa.InstSize)
	regs := &m.regs

	switch in.Op {
	case isa.OpNop:
	case isa.OpAdd:
		m.setReg(in.Rd, regs[in.Rs1]+regs[in.Rs2])
	case isa.OpSub:
		m.setReg(in.Rd, regs[in.Rs1]-regs[in.Rs2])
	case isa.OpMul:
		m.counters.MulOps++
		m.charge(m.cfg.Penalties.Mul)
		m.setReg(in.Rd, regs[in.Rs1]*regs[in.Rs2])
	case isa.OpDiv, isa.OpRem:
		m.counters.DivOps++
		m.charge(m.cfg.Penalties.Div)
		if regs[in.Rs2] == 0 {
			return m.fail("integer divide by zero")
		}
		if in.Op == isa.OpDiv {
			m.setReg(in.Rd, regs[in.Rs1]/regs[in.Rs2])
		} else {
			m.setReg(in.Rd, regs[in.Rs1]%regs[in.Rs2])
		}
	case isa.OpAnd:
		m.setReg(in.Rd, regs[in.Rs1]&regs[in.Rs2])
	case isa.OpOr:
		m.setReg(in.Rd, regs[in.Rs1]|regs[in.Rs2])
	case isa.OpXor:
		m.setReg(in.Rd, regs[in.Rs1]^regs[in.Rs2])
	case isa.OpSll:
		m.setReg(in.Rd, regs[in.Rs1]<<(uint64(regs[in.Rs2])&63))
	case isa.OpSrl:
		m.setReg(in.Rd, int64(uint64(regs[in.Rs1])>>(uint64(regs[in.Rs2])&63)))
	case isa.OpSra:
		m.setReg(in.Rd, regs[in.Rs1]>>(uint64(regs[in.Rs2])&63))
	case isa.OpSlt:
		m.setReg(in.Rd, b2i64(regs[in.Rs1] < regs[in.Rs2]))
	case isa.OpSltu:
		m.setReg(in.Rd, b2i64(uint64(regs[in.Rs1]) < uint64(regs[in.Rs2])))
	case isa.OpAddi:
		m.setReg(in.Rd, regs[in.Rs1]+int64(in.Imm))
	case isa.OpMuli:
		m.counters.MulOps++
		m.charge(m.cfg.Penalties.Mul)
		m.setReg(in.Rd, regs[in.Rs1]*int64(in.Imm))
	case isa.OpAndi:
		m.setReg(in.Rd, regs[in.Rs1]&int64(uint16(in.Imm)))
	case isa.OpOri:
		m.setReg(in.Rd, regs[in.Rs1]|int64(uint16(in.Imm)))
	case isa.OpXori:
		m.setReg(in.Rd, regs[in.Rs1]^int64(uint16(in.Imm)))
	case isa.OpSlli:
		m.setReg(in.Rd, regs[in.Rs1]<<(uint32(in.Imm)&63))
	case isa.OpSrli:
		m.setReg(in.Rd, int64(uint64(regs[in.Rs1])>>(uint32(in.Imm)&63)))
	case isa.OpSrai:
		m.setReg(in.Rd, regs[in.Rs1]>>(uint32(in.Imm)&63))
	case isa.OpSlti:
		m.setReg(in.Rd, b2i64(regs[in.Rs1] < int64(in.Imm)))
	case isa.OpSltiu:
		m.setReg(in.Rd, b2i64(uint64(regs[in.Rs1]) < uint64(uint16(in.Imm))))
	case isa.OpLui:
		m.setReg(in.Rd, int64(uint64(uint16(in.Imm))<<16))

	case isa.OpLdb, isa.OpLdbu, isa.OpLdh, isa.OpLdhu, isa.OpLdw, isa.OpLdwu, isa.OpLdq:
		addr := uint64(regs[in.Rs1] + int64(in.Imm))
		size := in.Op.MemBytes()
		limit := uint64(len(m.mem))
		if addr >= limit || uint64(size) > limit-addr {
			return m.fail("load at %#x out of bounds", addr)
		}
		m.dataAccess(addr, size, true)
		m.setReg(in.Rd, m.loadMem(addr, in.Op))

	case isa.OpStb, isa.OpSth, isa.OpStw, isa.OpStq:
		addr := uint64(regs[in.Rs1] + int64(in.Imm))
		size := in.Op.MemBytes()
		limit := uint64(len(m.mem))
		if addr >= limit || uint64(size) > limit-addr {
			return m.fail("store at %#x out of bounds", addr)
		}
		if addr < m.textBase+m.textSize && addr+uint64(size) > m.textBase {
			return m.fail("store at %#x into text segment", addr)
		}
		m.dataAccess(addr, size, false)
		m.storeMem(addr, regs[in.Rs2], size)

	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu:
		m.counters.Branches++
		taken := false
		a, b := regs[in.Rs1], regs[in.Rs2]
		switch in.Op {
		case isa.OpBeq:
			taken = a == b
		case isa.OpBne:
			taken = a != b
		case isa.OpBlt:
			taken = a < b
		case isa.OpBge:
			taken = a >= b
		case isa.OpBltu:
			taken = uint64(a) < uint64(b)
		case isa.OpBgeu:
			taken = uint64(a) >= uint64(b)
		}
		if m.pred.Branch(pc, taken) {
			m.counters.BranchMispredicts++
			m.charge(m.cfg.Penalties.Mispredict)
		}
		if taken {
			target := uint64(int64(next) + int64(in.Imm)*isa.InstSize)
			m.control(pc, target)
			next = target
		}

	case isa.OpJmp:
		target := uint64(int64(next) + int64(in.Imm)*isa.InstSize)
		m.control(pc, target)
		next = target

	case isa.OpJal:
		target := uint64(in.Imm) * isa.InstSize
		m.setReg(in.Rd, int64(next))
		m.pred.Call(next)
		m.control(pc, target)
		next = target

	case isa.OpJalr:
		target := uint64(regs[in.Rs1])
		if in.Rd == isa.R0 && in.Rs1 == isa.RA {
			// Return: consult the return-address stack.
			if m.pred.Return(target) {
				m.counters.RASMispredicts++
				m.charge(m.cfg.Penalties.Mispredict)
			}
		} else if in.Rd != isa.R0 {
			m.pred.Call(next)
		}
		m.setReg(in.Rd, int64(next))
		m.counters.TakenBranches++
		m.charge(m.cfg.Penalties.TakenBranch)
		next = target

	case isa.OpSys:
		m.counters.Syscalls++
		m.charge(m.cfg.Penalties.Sys)
		if err := m.syscall(); err != nil {
			return err
		}

	case isa.OpHalt:
		m.halted = true

	default:
		return m.fail("invalid opcode %v", in.Op)
	}

	m.pc = next
	return nil
}

func b2i64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (m *Machine) loadMem(addr uint64, op isa.Op) int64 {
	switch op {
	case isa.OpLdb:
		return int64(int8(m.mem[addr]))
	case isa.OpLdbu:
		return int64(m.mem[addr])
	case isa.OpLdh:
		return int64(int16(binary.LittleEndian.Uint16(m.mem[addr:])))
	case isa.OpLdhu:
		return int64(binary.LittleEndian.Uint16(m.mem[addr:]))
	case isa.OpLdw:
		return int64(int32(binary.LittleEndian.Uint32(m.mem[addr:])))
	case isa.OpLdwu:
		return int64(binary.LittleEndian.Uint32(m.mem[addr:]))
	default:
		return int64(binary.LittleEndian.Uint64(m.mem[addr:]))
	}
}

func (m *Machine) storeMem(addr uint64, v int64, size int) {
	switch size {
	case 1:
		m.mem[addr] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(m.mem[addr:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(m.mem[addr:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(m.mem[addr:], uint64(v))
	}
}

func (m *Machine) syscall() error {
	num := m.regs[isa.A0]
	arg := m.regs[isa.A1]
	switch num {
	case isa.SysExit:
		m.exitCode = arg
		m.halted = true
	case isa.SysPutInt, isa.SysPutChar:
		m.output = append(m.output, arg)
	case isa.SysChecksum:
		m.checksum = isa.MixChecksum(m.checksum, uint64(arg))
	case isa.SysCycles:
		m.regs[isa.RV] = int64(m.counters.Cycles)
	default:
		return m.fail("unknown system call %d", num)
	}
	return nil
}
