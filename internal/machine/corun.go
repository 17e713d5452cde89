package machine

import "biaslab/internal/loader"

// Incremental execution API for multi-tenant co-runs (internal/tenancy).
//
// A co-run steps two programs through ONE timing model: the tenants share
// the caches, TLBs and branch predictor, while everything architectural —
// memory, registers, pc, predecoded text, counters, store buffer — stays
// per-tenant. The scheduler owns the interleaving policy; this file only
// exposes the pieces: a shared-model constructor, a bounded stepper that
// stops exactly at a retired-instruction limit, and the memo flush that
// keeps per-tenant fast paths honest about shared-state eviction.

// NewSharedModel returns a fresh Machine that shares m's cache, TLB and
// predictor structures. The two machines must not execute concurrently;
// a co-run interleaves them in one goroutine. All per-tenant state (store
// buffer, memos, counters, fetch configuration) is the new machine's own.
func (m *Machine) NewSharedModel() *Machine {
	t := &Machine{
		cfg:  m.cfg,
		l1i:  m.l1i,
		l1d:  m.l1d,
		l2:   m.l2,
		itlb: m.itlb,
		dtlb: m.dtlb,
		pred: m.pred,
	}
	if m.cfg.StoreBufferDepth > 0 {
		t.sbAddr = make([]uint64, m.cfg.StoreBufferDepth)
		t.sbSeq = make([]uint64, m.cfg.StoreBufferDepth)
	}
	t.fetchBits = m.fetchBits
	t.fetchPot = m.fetchPot
	t.dMemoOK = m.dMemoOK
	return t
}

// BeginRun prepares the machine to execute img incrementally via StepTo:
// full state reset (including the — possibly shared — timing model) plus
// predecode. Resetting the shared model more than once before any tenant
// executes is harmless: the resets are idempotent generation bumps.
func (m *Machine) BeginRun(img *loader.Image) {
	m.resetState(img)
	m.uops = predecodedFor(img, m.uopScratch)
	if img.Exe == nil {
		m.uopScratch = m.uops
	}
}

// StepTo advances execution until the machine halts, faults, or has
// retired at least limit instructions in total — exactly limit when the
// program runs that far, which is what makes quantum scheduling
// deterministic. A full run driven by a single StepTo call is
// bit-identical to RunCtx.
func (m *Machine) StepTo(limit uint64) (halted bool, err error) {
	if err := m.runSlice(limit, m.tracer != nil || m.prof != nil); err != nil {
		return m.halted, err
	}
	return m.halted, nil
}

// FlushMemos invalidates the last-reference memos (MRU line/page/fetch
// block). The memos assert "this line was just referenced by me, so it is
// still resident and MRU" — a co-tenant's turn on the shared hierarchy can
// evict any of those lines, so the scheduler flushes them at every switch-
// in. The next reference then re-probes the real model and observes the
// eviction (or re-confirms the hit); for a line that is still MRU the probe
// is state-identical to the memo fast path, so flushing is always safe.
func (m *Machine) FlushMemos() {
	m.lastDLine = ^uint64(0)
	m.lastDPage = ^uint64(0)
	m.lastILine = ^uint64(0)
	m.lastIPage = ^uint64(0)
	m.lastFetchBlock = ^uint64(0)
}

// Retired returns the instructions retired so far in the current run.
func (m *Machine) Retired() uint64 { return m.counters.Instructions }

// TakeResult returns the result of a halted incremental run.
func (m *Machine) TakeResult() *Result { return m.result() }

// BudgetErr builds the standard budget-exhaustion error for an
// incremental run that retired maxInstr instructions without halting.
func (m *Machine) BudgetErr(maxInstr uint64) error { return m.budgetErr(maxInstr) }
