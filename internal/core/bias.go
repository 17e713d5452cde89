package core

import (
	"context"
	"fmt"

	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/stats"
)

// EnvPoint is one point of an environment-size sweep: the measured cycles
// at two optimization levels and their ratio.
type EnvPoint struct {
	EnvBytes   uint64
	CyclesBase uint64
	CyclesOpt  uint64
	Speedup    float64
}

// Cycles returns the point's measured O2/O3 cycle pair.
func (p EnvPoint) Cycles() (base, opt uint64) { return p.CyclesBase, p.CyclesOpt }

// EnvGrid is the environment-size channel: setup with its environment
// forced to each of sizes. Sweeping it regenerates the paper's Figures 1–2
// for a single benchmark and, aggregated across the suite, Figures 3–5.
func EnvGrid(setup Setup, sizes []uint64) Grid[EnvPoint] {
	setups := applyEach(setup, sizes, func(s *Setup, sz uint64) { s.EnvBytes = sz })
	return Grid[EnvPoint]{Kind: "env", Setups: setups, Point: func(i int, base, opt uint64) EnvPoint {
		return EnvPoint{EnvBytes: sizes[i], CyclesBase: base, CyclesOpt: opt, Speedup: speedup(base, opt)}
	}}
}

// DefaultEnvSizes returns the canonical environment-size sweep: from the
// empty environment to 4 KiB in the given step (the paper swept 0–4088
// bytes). Sizes 9–16 are unrepresentable (see loader.SyntheticEnv) and are
// skipped automatically.
func DefaultEnvSizes(step uint64) []uint64 {
	if step == 0 {
		step = 128
	}
	sizes := []uint64{8}
	for sz := step; sz <= 4096; sz += step {
		if sz >= 17 {
			sizes = append(sizes, sz)
		}
	}
	return sizes
}

// LinkPoint is one link order's measurement.
type LinkPoint struct {
	Label      string
	Order      []int
	CyclesBase uint64
	CyclesOpt  uint64
	Speedup    float64
}

// Cycles returns the point's measured O2/O3 cycle pair.
func (p LinkPoint) Cycles() (base, opt uint64) { return p.CyclesBase, p.CyclesOpt }

// LinkCandidate is one labelled link order of a link sweep: the default
// order, the alphabetical order, or a seeded random permutation.
type LinkCandidate struct {
	Label string
	Order []int
}

// LinkCandidates enumerates the link orders a link sweep measures — the
// default order, the alphabetical order, and n seeded random permutations.
// The set is a pure function of (names, n, seed), which is what lets a
// resumed or distributed sweep regenerate exactly the candidates an
// earlier run measured.
func LinkCandidates(names []string, n int, seed uint64) []LinkCandidate {
	rng := stats.NewRNG(seed)
	cands := []LinkCandidate{
		{"default", IdentityOrder(len(names))},
		{"alphabetical", AlphabeticalOrder(names)},
	}
	for i := 0; i < n; i++ {
		cands = append(cands, LinkCandidate{fmt.Sprintf("random%02d", i), RandomOrder(len(names), rng)})
	}
	return cands
}

// LinkGrid is the link-order channel: setup linked in each candidate's
// order — the paper's link-order experiment when cands comes from
// LinkCandidates.
func LinkGrid(setup Setup, cands []LinkCandidate) Grid[LinkPoint] {
	setups := applyEach(setup, cands, func(s *Setup, c LinkCandidate) { s.LinkOrder = c.Order })
	return Grid[LinkPoint]{Kind: "link", Setups: setups, Point: func(i int, base, opt uint64) LinkPoint {
		return LinkPoint{Label: cands[i].Label, Order: cands[i].Order, CyclesBase: base, CyclesOpt: opt, Speedup: speedup(base, opt)}
	}}
}

// BiasReport summarizes how a benchmark's measured speedup moves as one
// innocuous setup factor varies — the per-benchmark content of the paper's
// violin plots and of its "is the bias big enough to matter?" analysis.
type BiasReport struct {
	Benchmark string
	Machine   string
	// Factor is the perturbed factor's phrase from the channel table
	// (server.Channel.Factor): "environment size", "link order", "text
	// padding", "image base" or "co-runner".
	Factor   string
	Speedups stats.Summary
	// FlipsSign is true when the sweep contains speedups on both sides of
	// 1.0: the same experiment supports opposite conclusions.
	FlipsSign bool
	// BiasOverEffect is (max−min speedup) / |median speedup − 1|: how big
	// the bias is relative to the effect being measured. Values ≥ 1 mean
	// the setup choice matters as much as the optimization itself.
	BiasOverEffect float64
}

// NewBiasReport summarizes a slice of speedups.
func NewBiasReport(benchName, machineName, factor string, speedups []float64) BiasReport {
	s := stats.Summarize(speedups)
	rep := BiasReport{
		Benchmark: benchName,
		Machine:   machineName,
		Factor:    factor,
		Speedups:  s,
		FlipsSign: s.Min < 1 && s.Max > 1,
	}
	effect := s.Median - 1
	if effect < 0 {
		effect = -effect
	}
	if effect < 1e-9 {
		effect = 1e-9
	}
	rep.BiasOverEffect = s.Range() / effect
	return rep
}

func (rep BiasReport) String() string {
	flip := ""
	if rep.FlipsSign {
		flip = " FLIPS-SIGN"
	}
	return fmt.Sprintf("%-11s %-9s %-16s speedup %.4f..%.4f (med %.4f) bias/effect %.2f%s",
		rep.Benchmark, rep.Machine, rep.Factor,
		rep.Speedups.Min, rep.Speedups.Max, rep.Speedups.Median,
		rep.BiasOverEffect, flip)
}

// SuiteEnvStudy runs the environment sweep for every benchmark on one
// machine and returns a BiasReport per benchmark plus the raw speedups —
// the data behind Figures 3–5. A non-nil ck checkpoints every completed
// point, so an interrupted study resumes mid-benchmark.
func SuiteEnvStudy(ctx context.Context, r *Runner, machineName string, sizes []uint64, pers compiler.Personality, ck Checkpoint) ([]BiasReport, map[string][]float64, error) {
	return suiteStudy(ctx, r, machineName, pers, EnvFactor, ck, func(_ *bench.Benchmark, setup Setup) Grid[EnvPoint] {
		return EnvGrid(setup, sizes)
	})
}

// SuiteLinkStudy runs the link-order sweep for every benchmark on one
// machine — the data behind Figures 6–7. A non-nil ck checkpoints every
// completed point.
func SuiteLinkStudy(ctx context.Context, r *Runner, machineName string, nOrders int, seed uint64, pers compiler.Personality, ck Checkpoint) ([]BiasReport, map[string][]float64, error) {
	return suiteStudy(ctx, r, machineName, pers, LinkFactor, ck, func(b *bench.Benchmark, setup Setup) Grid[LinkPoint] {
		return LinkGrid(setup, LinkCandidates(r.UnitNames(b), nOrders, seed))
	})
}

// The env and link channels' factor phrases, which the suite studies
// report; the channel table (server.Channels) takes them from here.
const EnvFactor, LinkFactor = "environment size", "link order"

// suiteStudy sweeps one channel's grid for every benchmark on one machine.
func suiteStudy[P SweepPoint](ctx context.Context, r *Runner, machineName string, pers compiler.Personality, factor string, ck Checkpoint, grid func(*bench.Benchmark, Setup) Grid[P]) ([]BiasReport, map[string][]float64, error) {
	reports := []BiasReport{}
	raw := map[string][]float64{}
	for _, b := range bench.All() {
		setup := DefaultSetup(machineName)
		setup.Compiler.Personality = pers
		points, err := Sweep(ctx, r, b, grid(b, setup), ck)
		if err != nil {
			return nil, nil, err
		}
		raw[b.Name] = Speedups(points)
		reports = append(reports, NewBiasReport(b.Name, machineName, factor, raw[b.Name]))
	}
	return reports, raw, nil
}
