// Package tenancy implements the multi-tenant interference channel: a
// co-run execution engine that steps two programs through one shared
// machine timing model under a deterministic interleaving policy.
//
// The paper's four established channels (environment size, link order,
// text padding, image base) all perturb where a single program's state
// lands in a fixed hierarchy. This channel perturbs what *else* lives in
// that hierarchy: a co-runner's footprint displaces the subject's hot
// cache sets, TLB entries and BTB slots, exactly the "innocuous detail" a
// serving machine under heavy traffic adds to every measurement taken on
// it. The engine makes that displacement a first-class, sweepable setup
// factor with the same guarantees as every other channel — deterministic,
// byte-identical on replay, and output-preserving (interference changes
// timing, never results; the oracle checks both tenants' checksums).
//
// # Interleaving policy
//
// Tenants alternate in fixed order (subject first) on a quantum of
// retired instructions: the subject runs until its retired-instruction
// count reaches the next multiple of the quantum, then the co-runner
// does, and so on. The schedule depends only on (images, quantum) —
// retired instructions are deterministic, so the whole interleaving is.
// A tenant that halts drops out and the survivor runs uninterrupted;
// both tenants run to completion, so both checksums are complete and
// oracle-checkable. Per-tenant cycles stay deterministic because each
// tenant owns its counters and the shared structures are only ever
// mutated between the scheduler's exactly-placed turn boundaries
// (machine.Machine.StepTo stops exactly at its limit).
package tenancy

import (
	"context"

	"biaslab/internal/loader"
	"biaslab/internal/machine"
)

// DefaultQuantum is the interleave granularity when a setup leaves it
// zero: fine enough that the tenants genuinely contend (thousands of
// switches over even the test workloads), coarse enough that the memo
// flush at each switch stays invisible in throughput.
const DefaultQuantum = 4096

// Address-space plan. The subject occupies the loader defaults —
// [0, 16 MiB) with its stack at the top — and the co-runner is linked
// CoRunnerOffset higher and loaded into a CoRunnerMemSize image whose
// stack sits at *its* top, so the co-runner's entire footprint (text,
// data, bss, stack, environment) lives in [16 MiB, 32 MiB). Disjoint
// addresses into shared physically-indexed caches give set/way contention
// without data aliasing: the model of two hardware threads behind
// physically-tagged caches, and the reason the hot execution engines need
// zero changes for multi-tenancy.
const (
	// CoRunnerOffset is added to the co-runner's link-time text base.
	CoRunnerOffset = 16 << 20
	// CoRunnerMemSize is the co-runner's image size.
	CoRunnerMemSize = 32 << 20
)

// CoRunnerLoadOptions returns the loader options that place a co-runner
// in its half of the address-space plan.
func CoRunnerLoadOptions(env, args []string) loader.Options {
	return loader.Options{
		MemSize:  CoRunnerMemSize,
		StackTop: CoRunnerMemSize - 64,
		Env:      env,
		Args:     args,
	}
}

// cancelPollInstrs mirrors machine.RunCtx's cancellation granularity:
// with a cancellable context the engine polls ctx at least every this
// many retired instructions, even inside one giant quantum.
const cancelPollInstrs = 1 << 16

// CoRun executes subject and corunner to completion through one shared
// cache/TLB/predictor hierarchy built from cfg, interleaving on quantum
// retired instructions (0 = DefaultQuantum), and returns both results in
// order. Each tenant is separately bounded by maxInstr (0 = default).
//
// The two images must occupy disjoint address ranges (the caller links
// the co-runner at a displaced text base); the shared caches then contend
// on sets and ways without aliasing each other's data — the model of two
// hardware threads with physically-tagged caches.
func CoRun(ctx context.Context, cfg machine.Config, subject, corunner *loader.Image, quantum, maxInstr uint64) (*machine.Result, *machine.Result, error) {
	return CoRunOn(ctx, machine.New(cfg), subject, corunner, quantum, maxInstr)
}

// CoRunOn is CoRun on a caller-supplied prime machine, typically one taken
// from a pool: the subject runs on prime and the co-runner on a twin that
// shares prime's hierarchy. Both tenants fully reset the shared model
// before either executes, so a reused prime measures exactly what a fresh
// one would.
func CoRunOn(ctx context.Context, prime *machine.Machine, subject, corunner *loader.Image, quantum, maxInstr uint64) (*machine.Result, *machine.Result, error) {
	if quantum == 0 {
		quantum = DefaultQuantum
	}
	if maxInstr == 0 {
		maxInstr = machine.DefaultMaxInstructions
	}
	ms := [2]*machine.Machine{prime, prime.NewSharedModel()}
	imgs := [2]*loader.Image{subject, corunner}
	for k, m := range ms {
		m.BeginRun(imgs[k])
	}

	var results [2]*machine.Result
	cancellable := ctx.Done() != nil
	// last tracks which tenant ran most recently: a tenant whose memos
	// survived since its own last turn (because the other tenant never ran
	// in between) keeps them, which is what makes a solo-degenerate co-run
	// (quantum >= the subject's whole execution) bit-identical to RunCtx.
	var last *machine.Machine
	remaining := 2
	for remaining > 0 {
		for k, m := range ms {
			if results[k] != nil {
				continue
			}
			turnEnd := maxInstr
			if q := m.Retired() + quantum; q >= m.Retired() && q < turnEnd {
				turnEnd = q
			}
			if last != nil && last != m {
				m.FlushMemos()
			}
			last = m
			for {
				limit := turnEnd
				if cancellable {
					if err := ctx.Err(); err != nil {
						return nil, nil, err
					}
					if l := m.Retired() + cancelPollInstrs; l < limit {
						limit = l
					}
				}
				halted, err := m.StepTo(limit)
				if err != nil {
					return nil, nil, err
				}
				if halted {
					results[k] = m.TakeResult()
					remaining--
					break
				}
				if m.Retired() >= maxInstr {
					return nil, nil, m.BudgetErr(maxInstr)
				}
				if m.Retired() >= turnEnd {
					break
				}
			}
		}
	}
	return results[0], results[1], nil
}
