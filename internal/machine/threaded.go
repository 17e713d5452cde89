package machine

import (
	"encoding/binary"

	"biaslab/internal/isa"
)

// This file is the threaded-code execute engine: a single dispatch loop over
// the predecoded micro-op array that walks straight-line code by array index
// instead of by architectural pc. Superblocks — runs of sequential uops
// between taken control transfers — execute with no per-op pc validation
// (the index bound subsumes it), a masked index test instead of a fetch-block
// lookup, and loop-local copies of the hot counters and model state flushed
// once per slice. The memory-system, branch-predictor and BTB fast paths are
// inlined with their table slices hoisted into locals, so the common all-hit
// instruction touches no pointer chains.
//
// The engine is a pure throughput optimization: every handler charges the
// timing model in exactly the order stepRef does, and every irregular event
// — pc leaving the text segment, a misaligned indirect target,
// instrumentation, a non-power-of-two fetch block, the last stretch of a
// budget slice — exits the loop and defers to stepRef, which reproduces the
// reference behaviour including the exact fault message. The differential
// matrix test holds the two to bit-identical counters, output and checksums.

// slowLoad executes a non-8-byte load the stepper's way (bounds, memory
// system, sign/zero extension). Counters must be flushed before the call.
func (m *Machine) slowLoad(u *uop, pc uint64) error {
	addr := uint64(m.regs[u.rs1&31] + u.imm)
	size := int(u.memSize)
	limit := uint64(len(m.mem))
	if addr >= limit || uint64(size) > limit-addr {
		m.pc = pc
		return m.fail("load at %#x out of bounds", addr)
	}
	m.dataAccess(addr, size, true)
	m.setReg(u.rd, m.loadMem(addr, u.op))
	return nil
}

// slowStore executes a non-8-byte store the stepper's way. Counters must be
// flushed before the call.
func (m *Machine) slowStore(u *uop, pc uint64) error {
	addr := uint64(m.regs[u.rs1&31] + u.imm)
	size := int(u.memSize)
	limit := uint64(len(m.mem))
	if addr >= limit || uint64(size) > limit-addr {
		m.pc = pc
		return m.fail("store at %#x out of bounds", addr)
	}
	if addr < m.textBase+m.textSize && addr+uint64(size) > m.textBase {
		m.pc = pc
		return m.fail("store at %#x into text segment", addr)
	}
	m.dataAccess(addr, size, false)
	m.storeMem(addr, m.regs[u.rs2&31], size)
	return nil
}

// itlbRef is fetch's ITLB reference after a page-memo miss.
func (m *Machine) itlbRef(pc, page uint64) {
	m.lastIPage = page
	if !m.itlb.Access(pc) {
		m.counters.ITLBMisses++
		m.charge(m.cfg.Penalties.ITLBMiss)
	}
}

// l1iRef is fetch's L1I reference after a line-memo miss.
func (m *Machine) l1iRef(pc, line uint64) {
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

// threadedSlack is how far runThreaded may overshoot its stop count. The
// budget test runs at fetch-block boundaries and taken transfers instead of
// per instruction, so the loop can run up to two blocks past stop; callers
// subtract the slack from their true limit and let stepRef walk the
// remainder exactly.
const threadedSlack = 64

// runThreaded executes predecoded uops until the instruction count reaches
// stop (possibly overshooting by up to threadedSlack instructions — budget
// checks happen at fetch-block boundaries and taken transfers, not per
// instruction), the machine halts, execution leaves the text segment, or an
// execution fault occurs. On exit pc and the counters are flushed so
// stepRef can continue seamlessly; fault exits return the identical error
// stepRef would have produced.
//
// The body duplicates the data-side reference sequence of dataAccess — DTLB
// page memo, DTLB MRU probe, L1D line memo, L1D MRU probe, split check,
// aliasing — at each 8-byte memory handler. A memo or MRU hit is a
// guaranteed hit that changes no replacement state, so only the statistics
// move; anything else falls through to the exact model calls dataAccess
// makes, keeping it bit-identical to stepRef.
//
// Requires a power-of-two fetch block (all shipped configs); callers gate on
// m.fetchPot.
func (m *Machine) runThreaded(stop uint64) error {
	pc0 := m.pc
	textLo := m.textBase
	if off := pc0 - textLo; off >= m.textSize || pc0%uint64(isa.InstSize) != 0 {
		return nil // defer the fault to the stepper
	}
	instrs := m.counters.Instructions
	if stop-instrs < 2 || stop < instrs {
		return nil
	}
	uops := m.uops
	n := len(uops)
	i := int((pc0 - textLo) >> 2)
	acc := m.issueAcc
	width := m.cfg.IssueWidth
	pen := m.cfg.Penalties
	regs := &m.regs
	mem := m.mem
	memLimit := uint64(len(mem))
	if memLimit < 8 {
		return nil // degenerate image; the stepper handles every access
	}
	mem8 := memLimit - 8 // highest legal 8-byte access address
	// Text-overlap test folded to one compare: a store overlaps text iff
	// addr+8 > textLo && addr < textHi, i.e. addr-(textLo-7) < textSize+7.
	textOv := m.textSize + 7

	// pc&(fetchBlock-1)==0 expressed on the uop index: (textBase/4 + i) on
	// the block mask scaled down by the 4-byte instruction size.
	tb4 := textLo >> 2
	fbMask4 := uint64(m.cfg.FetchBlockBytes)>>2 - 1
	fetchBits := m.fetchBits
	ipageBits := m.itlb.pageBits
	ilineBits := m.l1i.lineBits

	// Data-side model state, hoisted so the all-hit path runs on registers.
	// The tables are fixed-size for the whole run (Reset only bumps gen, and
	// never mid-run), so the slices and generation snapshots stay valid.
	dlineBits := m.l1d.lineBits
	dpageBits := m.dtlb.pageBits
	memoOK := m.dMemoOK
	dTags, dGens, dMRU := m.l1d.tags, m.l1d.gens, m.l1d.mru
	dGen, dSetBits := m.l1d.gen, m.l1d.setBits
	dSetMask := uint64(1)<<dSetBits - 1
	dWays := m.l1d.ways
	dtPages, dtGens, dtMRU := m.dtlb.pages, m.dtlb.gens, m.dtlb.mru
	dtGen := m.dtlb.gen
	dtSetMask := uint64(1)<<m.dtlb.setBits - 1

	// Store-buffer aliasing state.
	sbOn := len(m.sbAddr) > 0
	sbAddrS, sbSeqS := m.sbAddr, m.sbSeq
	sbLen := len(sbAddrS)
	sbKC := &m.sbKeyCount
	sbKP := &m.sbKeyPage
	sbKS := &m.sbKeySeq
	aliasWin := m.cfg.AliasWindow

	// Branch machinery.
	pr := m.pred
	dirMask := uint64(1)<<pr.historyBits - 1
	hist := pr.history
	prDir, prDirGens := pr.direction, pr.dirGens
	prGen := pr.gen
	btbTargets, btbTags, btbGens := pr.btbTargets, pr.btbTags, pr.btbGens
	btbMask := uint64(1)<<pr.btbBits - 1
	btbShift := 2 + pr.btbBits
	misalignOn := pen.MisalignedEntry > 0

	// Event deltas, flushed once at loop exit. Nothing inside the loop reads
	// the flushed counters except Instructions (kept exact via the local and
	// explicit flushes before the aliasing scan, slow ops and syscalls) and
	// Cycles (flushed before syscalls for SysCycles).
	var cycles, loads, stores, fetchBlocks uint64
	var branches, prTaken, misp, takenB uint64
	var dtlbHits, l1dHits, itlbHits, l1iHits uint64
	var errOut error

	// Entry fetch: the loop's boundary test only covers sequential flow, so
	// the first instruction (and every jump target, at the jump sites below)
	// goes through the full front-end model, which early-outs within a block.
	m.fetch(pc0)
	// nb is the uop index of the next fetch-block boundary on sequential
	// flow, kept strictly ahead of i so the test is one compare per op. The
	// budget is checked here and at the jump sites — the only places a cycle
	// in the control-flow graph must pass through.
	blockStride := int(fbMask4) + 1
	nb := int(((tb4 + uint64(i)) | fbMask4) + 1 - tb4)
loop:
	for {
		if uint(i) >= uint(n) {
			// Off-text pc: the stepper reports the fault.
			m.pc = textLo + uint64(i)<<2
			break
		}
		u := &uops[i]
		// New fetch block on sequential flow: within a block the previous
		// op's fetch already made the block MRU, so the test is sufficient.
		// A backward jump to this exact boundary has already fetched the
		// block, hence the block recheck.
		if i == nb {
			if instrs >= stop {
				m.pc = textLo + uint64(i)<<2
				break
			}
			nb += blockStride
			pc := textLo + uint64(i)<<2
			if blk := pc >> fetchBits; blk != m.lastFetchBlock {
				m.lastFetchBlock = blk
				fetchBlocks++
				if page := pc >> ipageBits; page == m.lastIPage {
					itlbHits++
				} else {
					m.itlbRef(pc, page)
				}
				if line := pc >> ilineBits; line == m.lastILine {
					l1iHits++
				} else {
					m.l1iRef(pc, line)
				}
			}
		}
		instrs++
		acc++
		if acc >= width {
			cycles++
			acc = 0
		}

		switch u.op {
		case isa.OpNop:

		case isa.OpAdd:
			regs[u.rd&31] = regs[u.rs1&31] + regs[u.rs2&31]
		case isa.OpSub:
			regs[u.rd&31] = regs[u.rs1&31] - regs[u.rs2&31]
		case isa.OpMul:
			m.counters.MulOps++
			cycles += pen.Mul
			m.setReg(u.rd, regs[u.rs1&31]*regs[u.rs2&31])
		case isa.OpDiv, isa.OpRem:
			m.counters.DivOps++
			cycles += pen.Div
			if regs[u.rs2&31] == 0 {
				m.pc = textLo + uint64(i)<<2
				errOut = m.fail("integer divide by zero")
				break loop
			}
			if u.op == isa.OpDiv {
				m.setReg(u.rd, regs[u.rs1&31]/regs[u.rs2&31])
			} else {
				m.setReg(u.rd, regs[u.rs1&31]%regs[u.rs2&31])
			}
		case isa.OpAnd:
			regs[u.rd&31] = regs[u.rs1&31] & regs[u.rs2&31]
		case isa.OpOr:
			regs[u.rd&31] = regs[u.rs1&31] | regs[u.rs2&31]
		case isa.OpXor:
			regs[u.rd&31] = regs[u.rs1&31] ^ regs[u.rs2&31]
		case isa.OpSll:
			regs[u.rd&31] = regs[u.rs1&31] << (uint64(regs[u.rs2&31]) & 63)
		case isa.OpSrl:
			regs[u.rd&31] = int64(uint64(regs[u.rs1&31]) >> (uint64(regs[u.rs2&31]) & 63))
		case isa.OpSra:
			regs[u.rd&31] = regs[u.rs1&31] >> (uint64(regs[u.rs2&31]) & 63)
		case isa.OpSlt:
			regs[u.rd&31] = b2i64(regs[u.rs1&31] < regs[u.rs2&31])
		case isa.OpSltu:
			regs[u.rd&31] = b2i64(uint64(regs[u.rs1&31]) < uint64(regs[u.rs2&31]))
		case isa.OpAddi:
			regs[u.rd&31] = regs[u.rs1&31] + u.imm
		case isa.OpMuli:
			m.counters.MulOps++
			cycles += pen.Mul
			m.setReg(u.rd, regs[u.rs1&31]*u.imm)
		case isa.OpAndi:
			regs[u.rd&31] = regs[u.rs1&31] & u.imm
		case isa.OpOri:
			regs[u.rd&31] = regs[u.rs1&31] | u.imm
		case isa.OpXori:
			regs[u.rd&31] = regs[u.rs1&31] ^ u.imm
		case isa.OpSlli:
			regs[u.rd&31] = regs[u.rs1&31] << uint64(u.imm)
		case isa.OpSrli:
			regs[u.rd&31] = int64(uint64(regs[u.rs1&31]) >> uint64(u.imm))
		case isa.OpSrai:
			regs[u.rd&31] = regs[u.rs1&31] >> uint64(u.imm)
		case isa.OpSlti:
			regs[u.rd&31] = b2i64(regs[u.rs1&31] < u.imm)
		case isa.OpSltiu:
			regs[u.rd&31] = b2i64(uint64(regs[u.rs1&31]) < uint64(u.imm))
		case isa.OpLui:
			regs[u.rd&31] = u.imm

		case isa.OpLdq:
			addr := uint64(regs[u.rs1&31] + u.imm)
			if addr > mem8 {
				m.pc = textLo + uint64(i)<<2
				errOut = m.fail("load at %#x out of bounds", addr)
				break loop
			}
			if page := addr >> dpageBits; page == m.lastDPage {
				dtlbHits++
			} else {
				m.lastDPage = page
				s := page & dtSetMask
				if wi := int(s)*tlbWays + int(dtMRU[s]); dtGens[wi] == dtGen && dtPages[wi] == page {
					dtlbHits++
				} else if !m.dtlb.Access(addr) {
					m.counters.DTLBMisses++
					cycles += pen.DTLBMiss
				}
			}
			line := addr >> dlineBits
			if memoOK && line == m.lastDLine {
				l1dHits++
			} else {
				if memoOK {
					m.lastDLine = line
				}
				s := line & dSetMask
				if wi := int(s)*dWays + int(dMRU[s]); dGens[wi] == dGen && dTags[wi] == line>>dSetBits {
					l1dHits++
				} else if !m.l1d.Access(addr) {
					m.counters.L1DMisses++
					if m.l2.Access(addr) {
						cycles += pen.L1Miss
					} else {
						m.counters.L2Misses++
						cycles += pen.L2Miss
					}
					if m.cfg.NextLinePrefetch {
						m.l1d.Prefetch(addr + uint64(m.l1d.LineSize()))
					}
				}
			}
			if line != (addr+7)>>dlineBits {
				m.counters.SplitAccesses++
				cycles += pen.SplitAccess
				m.dcacheRef(addr + 7)
			}
			loads++
			if sbOn {
				if key := addr >> 3 & 0x1ff; sbKC[key] != 0 && sbKP[key] != addr>>12 && instrs-sbKS[key] <= aliasWin {
					// The key's most recent store (still buffered — FIFO
					// eviction) is in the window. Single-page key: that
					// alone decides the stall. Mixed key: scan.
					if sbKP[key] != mixedPage {
						m.counters.Alias4KStalls++
						cycles += pen.Alias4K
					} else {
						m.counters.Instructions = instrs
						m.alias4K(addr)
					}
				}
			}
			if u.rd != 0 {
				regs[u.rd&31] = int64(binary.LittleEndian.Uint64(mem[addr:]))
			}

		case isa.OpLdb, isa.OpLdbu, isa.OpLdh, isa.OpLdhu, isa.OpLdw, isa.OpLdwu:
			m.counters.Instructions = instrs
			if err := m.slowLoad(u, textLo+uint64(i)<<2); err != nil {
				errOut = err
				break loop
			}

		case isa.OpStq:
			addr := uint64(regs[u.rs1&31] + u.imm)
			if addr > mem8 {
				m.pc = textLo + uint64(i)<<2
				errOut = m.fail("store at %#x out of bounds", addr)
				break loop
			}
			if addr+7-textLo < textOv {
				m.pc = textLo + uint64(i)<<2
				errOut = m.fail("store at %#x into text segment", addr)
				break loop
			}
			if page := addr >> dpageBits; page == m.lastDPage {
				dtlbHits++
			} else {
				m.lastDPage = page
				s := page & dtSetMask
				if wi := int(s)*tlbWays + int(dtMRU[s]); dtGens[wi] == dtGen && dtPages[wi] == page {
					dtlbHits++
				} else if !m.dtlb.Access(addr) {
					m.counters.DTLBMisses++
					cycles += pen.DTLBMiss
				}
			}
			line := addr >> dlineBits
			if memoOK && line == m.lastDLine {
				l1dHits++
			} else {
				if memoOK {
					m.lastDLine = line
				}
				s := line & dSetMask
				if wi := int(s)*dWays + int(dMRU[s]); dGens[wi] == dGen && dTags[wi] == line>>dSetBits {
					l1dHits++
				} else if !m.l1d.Access(addr) {
					m.counters.L1DMisses++
					if m.l2.Access(addr) {
						cycles += pen.L1Miss
					} else {
						m.counters.L2Misses++
						cycles += pen.L2Miss
					}
					if m.cfg.NextLinePrefetch {
						m.l1d.Prefetch(addr + uint64(m.l1d.LineSize()))
					}
				}
			}
			if line != (addr+7)>>dlineBits {
				m.counters.SplitAccesses++
				cycles += pen.SplitAccess
				m.dcacheRef(addr + 7)
			}
			stores++
			if sbOn {
				// recordStore, inlined with the local instruction count.
				pos := m.sbPos
				if old := sbAddrS[pos]; old != ^uint64(0) {
					sbKC[old>>3&0x1ff]--
				}
				sbAddrS[pos] = addr
				sbSeqS[pos] = instrs
				key := addr >> 3 & 0x1ff
				sbKS[key] = instrs
				page := addr >> 12
				if sbKC[key] == 0 {
					sbKP[key] = page
				} else if sbKP[key] != page {
					sbKP[key] = mixedPage
				}
				sbKC[key]++
				pos++
				if pos == sbLen {
					pos = 0
				}
				m.sbPos = pos
			}
			binary.LittleEndian.PutUint64(mem[addr:], uint64(regs[u.rs2&31]))

		case isa.OpStb, isa.OpSth, isa.OpStw:
			m.counters.Instructions = instrs
			if err := m.slowStore(u, textLo+uint64(i)<<2); err != nil {
				errOut = err
				break loop
			}

		case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu:
			branches++
			a, b := regs[u.rs1&31], regs[u.rs2&31]
			var taken bool
			switch u.op {
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
			default:
				taken = uint64(a) >= uint64(b)
			}
			pc := textLo + uint64(i)<<2
			// Predictor.Branch, inlined: gshare lookup + 2-bit counter
			// update + history shift.
			idx := int((pc>>2 ^ hist) & dirMask)
			ctr := int8(0)
			if prDirGens[idx] == prGen {
				ctr = prDir[idx]
			}
			predTaken := ctr >= 2
			if taken {
				if ctr < 3 {
					ctr++
				}
				prTaken++
				hist = hist<<1 | 1
			} else {
				if ctr > 0 {
					ctr--
				}
				hist = hist << 1
			}
			prDir[idx] = ctr
			prDirGens[idx] = prGen
			if predTaken != taken {
				misp++
				cycles += pen.Mispredict
			}
			if taken {
				// control + Predictor.Target, inlined: taken-branch charge,
				// direct-mapped BTB update, misaligned-target charge.
				takenB++
				cycles += pen.TakenBranch
				bidx := int(pc >> 2 & btbMask)
				btag := uint32(pc >> btbShift)
				var storedTag uint32
				var storedTarget uint64
				if btbGens[bidx] == prGen {
					storedTag, storedTarget = btbTags[bidx], btbTargets[bidx]
				}
				btbTargets[bidx] = u.target
				btbTags[bidx] = btag
				btbGens[bidx] = prGen
				if storedTag != btag || storedTarget != u.target {
					pr.btbMisses++
					m.counters.BTBRedirects++
					cycles += pen.BTBRedirect
				}
				if misalignOn && u.target%16 != 0 {
					m.counters.MisalignedTargets++
					cycles += pen.MisalignedEntry
				}
				if u.tidx < 0 {
					m.pc = u.target
					break loop
				}
				i = int(u.tidx)
				if instrs >= stop {
					m.pc = u.target
					break loop
				}
				m.fetch(u.target)
				nb = int(((tb4 + uint64(i)) | fbMask4) + 1 - tb4)
				continue
			}

		case isa.OpJmp:
			pc := textLo + uint64(i)<<2
			takenB++
			cycles += pen.TakenBranch
			bidx := int(pc >> 2 & btbMask)
			btag := uint32(pc >> btbShift)
			var storedTag uint32
			var storedTarget uint64
			if btbGens[bidx] == prGen {
				storedTag, storedTarget = btbTags[bidx], btbTargets[bidx]
			}
			btbTargets[bidx] = u.target
			btbTags[bidx] = btag
			btbGens[bidx] = prGen
			if storedTag != btag || storedTarget != u.target {
				pr.btbMisses++
				m.counters.BTBRedirects++
				cycles += pen.BTBRedirect
			}
			if misalignOn && u.target%16 != 0 {
				m.counters.MisalignedTargets++
				cycles += pen.MisalignedEntry
			}
			if u.tidx < 0 {
				m.pc = u.target
				break loop
			}
			i = int(u.tidx)
			if instrs >= stop {
				m.pc = u.target
				break loop
			}
			m.fetch(u.target)
			nb = int(((tb4 + uint64(i)) | fbMask4) + 1 - tb4)
			continue

		case isa.OpJal:
			pc := textLo + uint64(i)<<2
			next := pc + uint64(isa.InstSize)
			m.setReg(u.rd, int64(next))
			pr.Call(next)
			takenB++
			cycles += pen.TakenBranch
			bidx := int(pc >> 2 & btbMask)
			btag := uint32(pc >> btbShift)
			var storedTag uint32
			var storedTarget uint64
			if btbGens[bidx] == prGen {
				storedTag, storedTarget = btbTags[bidx], btbTargets[bidx]
			}
			btbTargets[bidx] = u.target
			btbTags[bidx] = btag
			btbGens[bidx] = prGen
			if storedTag != btag || storedTarget != u.target {
				pr.btbMisses++
				m.counters.BTBRedirects++
				cycles += pen.BTBRedirect
			}
			if misalignOn && u.target%16 != 0 {
				m.counters.MisalignedTargets++
				cycles += pen.MisalignedEntry
			}
			if u.tidx < 0 {
				m.pc = u.target
				break loop
			}
			i = int(u.tidx)
			if instrs >= stop {
				m.pc = u.target
				break loop
			}
			m.fetch(u.target)
			nb = int(((tb4 + uint64(i)) | fbMask4) + 1 - tb4)
			continue

		case isa.OpJalr:
			pc := textLo + uint64(i)<<2
			next := pc + uint64(isa.InstSize)
			target := uint64(regs[u.rs1&31])
			if u.rd == isa.R0 && u.rs1 == isa.RA {
				if pr.Return(target) {
					m.counters.RASMispredicts++
					cycles += pen.Mispredict
				}
			} else if u.rd != isa.R0 {
				pr.Call(next)
			}
			m.setReg(u.rd, int64(next))
			takenB++
			cycles += pen.TakenBranch
			if toff := target - textLo; toff >= m.textSize || target%uint64(isa.InstSize) != 0 {
				// Off-text or misaligned indirect target: the stepper
				// reports the fault on its next step, as the reference does.
				m.pc = target
				break loop
			}
			i = int((target - textLo) >> 2)
			if instrs >= stop {
				m.pc = target
				break loop
			}
			m.fetch(target)
			nb = int(((tb4 + uint64(i)) | fbMask4) + 1 - tb4)
			continue

		case isa.OpSys:
			m.counters.Syscalls++
			cycles += pen.Sys
			// The syscall may read the live cycle count (SysCycles), so the
			// deltas it can observe are flushed first.
			m.counters.Instructions = instrs
			m.counters.Cycles += cycles
			cycles = 0
			pc := textLo + uint64(i)<<2
			m.pc = pc
			if err := m.syscall(); err != nil {
				errOut = err
				break loop
			}
			if m.halted {
				m.pc = pc + uint64(isa.InstSize)
				break loop
			}

		case isa.OpHalt:
			m.halted = true
			m.pc = textLo + uint64(i)<<2 + uint64(isa.InstSize)
			break loop

		default:
			m.pc = textLo + uint64(i)<<2
			errOut = m.fail("invalid opcode %v", u.op)
			break loop
		}
		i++
	}
	// Single flush point: every exit path above (fault, halt, off-text
	// transfer, budget) has set m.pc before breaking.
	m.counters.Instructions = instrs
	m.issueAcc = acc
	m.counters.Cycles += cycles
	m.counters.Loads += loads
	m.counters.Stores += stores
	m.counters.FetchBlocks += fetchBlocks
	m.counters.Branches += branches
	m.counters.BranchMispredicts += misp
	m.counters.TakenBranches += takenB
	m.dtlb.hits += dtlbHits
	m.l1d.hits += l1dHits
	m.itlb.hits += itlbHits
	m.l1i.hits += l1iHits
	pr.branches += branches
	pr.takenBranches += prTaken
	pr.mispredicts += misp
	pr.history = hist
	return errOut
}

// runSlice advances execution until halt, fault, or Instructions >= limit.
// The threaded engine does the bulk; the reference stepper picks up the
// last stretch of each slice and every irregular case (entry faults,
// off-text pc, non-power-of-two fetch blocks). Instrumented runs step
// every instruction through the reference stepper.
func (m *Machine) runSlice(limit uint64, instrumented bool) error {
	if instrumented {
		for !m.halted && m.counters.Instructions < limit {
			if err := m.step(); err != nil {
				return err
			}
		}
		return nil
	}
	for !m.halted && m.counters.Instructions < limit {
		// The threaded engine stops a slack short of the limit (its budget
		// checks are per block, not per op, so it may overshoot its stop
		// count); the stepper walks the final stretch exactly.
		if m.fetchPot && limit-m.counters.Instructions > threadedSlack+2 {
			if err := m.runThreaded(limit - threadedSlack); err != nil {
				return err
			}
			if m.halted {
				break
			}
		}
		if err := m.stepRef(); err != nil {
			return err
		}
	}
	return nil
}
