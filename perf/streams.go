package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"biaslab/internal/bench"
	"biaslab/internal/core"
	"biaslab/internal/isa"
	"biaslab/internal/loader"
	"biaslab/internal/machine"
	"biaslab/internal/tenancy"
)

// The timing structures are not separately callable inside a run, so the
// traced pass measures them by replay: an address and branch stream is
// recorded once per (benchmark, machine) through Machine.SetTracer, then
// fed to fresh machine.NewCache, NewTLB and NewPredictor instances with a
// span around each replay. The structures start empty, as they do at every
// measurement.

const (
	// streamBudget bounds the recorded prefix of a run, in instructions.
	streamBudget = 1 << 20
	// streamPairs bounds how many (benchmark, machine) streams one traced
	// run records.
	streamPairs = 6
	// streamReps is how many timed replay spans each stream gets.
	streamReps = 3
)

// stream is one recorded reference stream.
type stream struct {
	cfg      machine.Config
	fetch    []uint64 // pc at every fetch-block change
	data     []uint64 // effective address of every load and store (and the tail of a line split)
	branches []uint64 // conditional branch pc<<1 | taken
}

type streamTracer struct {
	s         *stream
	fetchBits uint
	lastBlock uint64
	lineSize  uint64
}

func (t *streamTracer) Trace(ev machine.TraceEvent) {
	if b := ev.PC >> t.fetchBits; b != t.lastBlock {
		t.lastBlock = b
		t.s.fetch = append(t.s.fetch, ev.PC)
	}
	op := ev.Inst.Op
	if op.IsLoad() || op.IsStore() {
		t.s.data = append(t.s.data, ev.MemAddr)
		if last := ev.MemAddr + uint64(op.MemBytes()) - 1; last/t.lineSize != ev.MemAddr/t.lineSize {
			t.s.data = append(t.s.data, last)
		}
	}
	if op.IsBranch() {
		taken := uint64(0)
		if ev.NextPC != ev.PC+isa.InstSize {
			taken = 1
		}
		t.s.branches = append(t.s.branches, ev.PC<<1|taken)
	}
}

func log2(v uint64) uint {
	n := uint(0)
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// record runs the O2 default setup of b on cfg with a tracer attached, up
// to streamBudget instructions.
func recordStream(ctx context.Context, size bench.Size, b *bench.Benchmark, machineName string) (*stream, error) {
	cfg, ok := machine.ConfigByName(machineName)
	if !ok {
		return nil, fmt.Errorf("unknown machine %q", machineName)
	}
	setup := core.DefaultSetup(machineName)
	exe, err := core.NewRunner(size).Executable(b, setup)
	if err != nil {
		return nil, err
	}
	img, err := loader.Load(exe, envOptions(b, setup))
	if err != nil {
		return nil, err
	}
	s := &stream{cfg: cfg}
	m := machine.New(cfg)
	m.SetTracer(&streamTracer{s: s, fetchBits: log2(uint64(cfg.FetchBlockBytes)), lastBlock: ^uint64(0), lineSize: uint64(cfg.L1D.LineSize)})
	if _, err := m.RunCtx(ctx, img, streamBudget); err != nil && !errors.Is(err, machine.ErrStepBudget) {
		return nil, err
	}
	return s, nil
}

// distinct drops each address that repeats the line or page (of size
// 1<<bits) of the one before it: the machine skips the structure for those
// too, so what remains is the stream of calls the structure itself sees.
func distinct(addrs []uint64, bits uint) []uint64 {
	out := make([]uint64, 0, len(addrs))
	last := ^uint64(0)
	for _, a := range addrs {
		if g := a >> bits; g != last {
			last = g
			out = append(out, a)
		}
	}
	return out
}

// minCalls is how many structure calls one replay span times at least:
// short streams are replayed several times over, with an O(1) Reset
// between passes, so the span is long enough to time.
const minCalls = 200_000

func passes(n int) int { return max(1, (minCalls+n-1)/max(n, 1)) }

// replayCache times a cache over a call stream and returns the misses
// (the next level's stream).
func replayCache(rec *recorder, name string, cc machine.CacheConfig, calls []uint64) []uint64 {
	c := machine.NewCache(cc)
	k := passes(len(calls))
	for rep := 0; rep < streamReps; rep++ {
		s := rec.begin("cache", scope{op: -1})
		for p := 0; p < k; p++ {
			c.Reset()
			for _, a := range calls {
				c.Access(a)
			}
		}
		d := s.end()
		rec.add("cache."+name+".ns", float64(d.Nanoseconds()))
		rec.add("cache."+name+".accesses", float64(k*len(calls)))
	}
	c.Reset()
	var misses []uint64
	for _, a := range calls {
		if !c.Access(a) {
			misses = append(misses, a)
		}
	}
	return misses
}

func replayTLB(rec *recorder, name string, entries, pageSize int, calls []uint64) {
	t := machine.NewTLB(entries, pageSize)
	k := passes(len(calls))
	for rep := 0; rep < streamReps; rep++ {
		s := rec.begin("tlb", scope{op: -1})
		for p := 0; p < k; p++ {
			t.Reset()
			for _, a := range calls {
				t.Access(a)
			}
		}
		d := s.end()
		rec.add("tlb."+name+".ns", float64(d.Nanoseconds()))
		rec.add("tlb."+name+".accesses", float64(k*len(calls)))
	}
}

func replayPredictor(rec *recorder, pc machine.PredictorConfig, branches []uint64) {
	pr := machine.NewPredictor(pc)
	k := passes(len(branches))
	for rep := 0; rep < streamReps; rep++ {
		s := rec.begin("predictor", scope{op: -1})
		for p := 0; p < k; p++ {
			pr.Reset()
			for _, br := range branches {
				pr.Branch(br>>1, br&1 == 1)
			}
		}
		d := s.end()
		rec.add("predictor.ns", float64(d.Nanoseconds()))
		rec.add("predictor.branches", float64(k*len(branches)))
	}
}

// replayStructures records and replays the streams of the first
// streamPairs distinct (benchmark, machine) pairs the ops name.
func replayStructures(ctx context.Context, rec *recorder, ops []op) error {
	seen := map[string]bool{}
	for _, o := range ops {
		if len(seen) == streamPairs {
			break
		}
		key := o.Spec.Bench + "@" + o.Spec.Machine
		if seen[key] {
			continue
		}
		seen[key] = true
		size, err := bench.ParseSize(o.Spec.Size)
		if err != nil {
			return err
		}
		b, _ := bench.ByName(o.Spec.Bench)
		s, err := recordStream(ctx, size, b, o.Spec.Machine)
		if err != nil {
			return fmt.Errorf("recording %s: %w", key, err)
		}
		lineBits, pageBits := log2(uint64(s.cfg.L1D.LineSize)), log2(uint64(s.cfg.PageSize))
		l2 := replayCache(rec, "l1i", s.cfg.L1I, distinct(s.fetch, log2(uint64(s.cfg.L1I.LineSize))))
		l2 = append(l2, replayCache(rec, "l1d", s.cfg.L1D, distinct(s.data, lineBits))...)
		replayCache(rec, "l2", s.cfg.L2, l2)
		replayTLB(rec, "itlb", s.cfg.ITLBEntries, s.cfg.PageSize, distinct(s.fetch, pageBits))
		replayTLB(rec, "dtlb", s.cfg.DTLBEntries, s.cfg.PageSize, distinct(s.data, pageBits))
		replayPredictor(rec, s.cfg.Predictor, s.branches)
	}
	return nil
}

// allocated returns the bytes fn allocates, measured serially so no other
// goroutine's allocations are counted.
func allocated(fn func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc), err
}

// allocProbes measures loader.Load and tenancy.CoRun allocation per call
// on the first op's benchmark, outside any span. The co-run probe runs
// only when the traced pass co-ran.
func allocProbes(ctx context.Context, ops []op, coRan bool) (loadMB, coRunMB float64, err error) {
	first := ops[0]
	size, err := bench.ParseSize(first.Spec.Size)
	if err != nil {
		return 0, 0, err
	}
	b, _ := bench.ByName(first.Spec.Bench)
	r := core.NewRunner(size)
	setup := core.DefaultSetup(first.Spec.Machine)
	exe, err := r.Executable(b, setup)
	if err != nil {
		return 0, 0, err
	}
	coBench, _ := bench.ByName("mcf")
	subj := setup
	subj.CoRunner = core.CoRunner{Bench: coBench.Name}
	coSetup, err := core.CoRunnerSetup(subj)
	if err != nil {
		return 0, 0, err
	}
	coExe, err := r.Executable(coBench, coSetup)
	if err != nil {
		return 0, 0, err
	}
	// Loads in the proportion the workload makes them: a subject image per
	// measurement, plus a co-runner image when it co-ran.
	const loads = 8
	calls := 0
	bytes, err := allocated(func() error {
		for i := 0; i < loads; i++ {
			imgs := []func() (*loader.Image, error){func() (*loader.Image, error) { return loader.Load(exe, envOptions(b, setup)) }}
			if coRan {
				imgs = append(imgs, func() (*loader.Image, error) {
					return loader.Load(coExe, tenancy.CoRunnerLoadOptions(loader.SyntheticEnv(coSetup.EnvBytes), []string{coBench.Name}))
				})
			}
			for _, load := range imgs {
				img, err := load()
				if err != nil {
					return err
				}
				img.Release()
				calls++
			}
		}
		return nil
	})
	if err != nil || !coRan {
		return bytes / float64(calls) / 1e6, 0, err
	}
	cfg, _ := machine.ConfigByName(setup.Machine)
	const coRuns = 2
	var total float64
	for i := 0; i < coRuns; i++ {
		img, err := loader.Load(exe, envOptions(b, setup))
		if err != nil {
			return 0, 0, err
		}
		coImg, err := loader.Load(coExe, tenancy.CoRunnerLoadOptions(loader.SyntheticEnv(coSetup.EnvBytes), []string{coBench.Name}))
		if err != nil {
			return 0, 0, err
		}
		n, err := allocated(func() error {
			_, _, err := tenancy.CoRun(ctx, cfg, img, coImg, 0, maxInstructions)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		total += n
		img.Release()
		coImg.Release()
	}
	return bytes / float64(calls) / 1e6, total / coRuns / 1e6, nil
}
