// Package biaslab is a laboratory for studying measurement bias in
// computer-systems performance evaluation. It is a from-scratch, pure-Go
// reproduction of Mytkowicz, Diwan, Hauswirth and Sweeney, "Producing Wrong
// Data Without Doing Anything Obviously Wrong!" (ASPLOS 2009).
//
// The library contains a complete miniature systems stack — a C-like
// language and optimizing compiler with gcc/icc personalities, an object
// format and linker, a Unix-style loader, and cycle-approximate simulators
// of the paper's three platforms (Pentium 4, Core 2, m5 O3CPU) — plus
// twelve benchmark programs modelled on the SPEC CPU2006 C suite. On top of
// that stack it implements the paper's contribution:
//
//   - Bias measurement: sweep an "innocuous" setup factor (UNIX environment
//     size, link order) and watch the measured speedup of -O3 over -O2
//     swing and even change sign (EnvSweep, LinkSweep, SuiteEnvStudy).
//   - Setup randomization: evaluate across many randomized setups and
//     report a confidence interval instead of a biased point
//     (RandomSetups, EstimateSpeedup).
//   - Causal analysis: intervene on the suspected cause directly and rank
//     hardware events by correlation with the effect (CausalStudy).
//
// Quick start:
//
//	ctx := context.Background()
//	r := biaslab.NewRunner(biaslab.SizeSmall)
//	b, _ := biaslab.Benchmark("perlbench")
//	small := biaslab.DefaultSetup("core2")          // 512-byte environment
//	big := small
//	big.EnvBytes = 4000                             // a fat shell environment
//	s1, _, _, _ := r.Speedup(ctx, b, small, biaslab.O2, biaslab.O3)
//	s2, _, _, _ := r.Speedup(ctx, b, big, biaslab.O2, biaslab.O3)
//	// s1 and s2 disagree — possibly about which level is faster.
//
// Every measurement entry point takes a context.Context and stops promptly
// when it is cancelled; failures anywhere in the pipeline surface as typed
// *MeasurementError values carrying the stage and the exact setup that
// failed. Long studies can be checkpointed through the Checkpoint
// interface and resumed bit-identically after a crash or kill.
//
// Every table and figure of the paper's evaluation can be regenerated with
// a Lab (see NewLab) or from the command line with cmd/biaslab.
package biaslab

import (
	"context"

	"biaslab/internal/analysis"
	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/core"
	"biaslab/internal/experiments"
	"biaslab/internal/journal"
	"biaslab/internal/machine"
	"biaslab/internal/stats"
)

// Workload sizes for the benchmark suite.
type Size = bench.Size

// Workload size presets.
const (
	SizeTest  = bench.SizeTest
	SizeSmall = bench.SizeSmall
	SizeRef   = bench.SizeRef
)

// Optimization levels of the built-in compiler.
const (
	O0 = compiler.O0
	O1 = compiler.O1
	O2 = compiler.O2
	O3 = compiler.O3
)

// Compiler personalities (the paper's two compilers).
const (
	GCC = compiler.GCC
	ICC = compiler.ICC
)

// Core types, re-exported from the implementation packages.
type (
	// Setup is one complete experimental configuration: machine, compiler,
	// environment size, link order, and the causal-analysis stack shift.
	Setup = core.Setup
	// Runner executes benchmarks under setups with object caching and
	// output-stability checking.
	Runner = core.Runner
	// Measurement is one run's cycles, counters and checksum.
	Measurement = core.Measurement
	// BiasReport summarizes speedup variation across a setup sweep.
	BiasReport = core.BiasReport
	// EnvPoint and LinkPoint are sweep samples.
	EnvPoint = core.EnvPoint
	// LinkPoint is one link order's measurement in a sweep.
	LinkPoint = core.LinkPoint
	// TenantPoint is one co-runner's sample in a tenant sweep.
	TenantPoint = core.TenantPoint
	// CoRunner configures a co-running tenant on the shared machine.
	CoRunner = core.CoRunner
	// RobustEstimate is the randomized-setup speedup estimate.
	RobustEstimate = core.RobustEstimate
	// CausalReport is the outcome of an intervention study.
	CausalReport = core.CausalReport
	// Comparison is a robust A/B toolchain comparison across setups.
	Comparison = core.Comparison
	// CompilerConfig selects personality and level.
	CompilerConfig = compiler.Config
	// BenchmarkProgram is one suite member.
	BenchmarkProgram = bench.Benchmark
	// Counters is the simulated machine's performance-monitor surface.
	Counters = machine.Counters
	// Profile is a per-function cycle attribution (see Runner.MeasureProfiled).
	Profile = machine.Profile
	// Interval is a confidence interval.
	Interval = stats.Interval
	// Lab regenerates the paper's tables and figures.
	Lab = experiments.Lab
	// LabOptions tunes experiment cost.
	LabOptions = experiments.Options
	// ExperimentResult is one regenerated artifact (text + CSV).
	ExperimentResult = experiments.Result
	// MeasurementError is the typed failure of one measurement: the
	// pipeline stage, the benchmark, and the exact setup that failed.
	MeasurementError = core.MeasurementError
	// PanicError wraps a panic caught at the measurement boundary.
	PanicError = core.PanicError
	// Stage identifies a measurement pipeline stage in a MeasurementError.
	Stage = core.Stage
	// Checkpoint persists completed sweep points for crash-safe resume.
	Checkpoint = core.Checkpoint
	// EnvPlan is the bias oracle's measurement plan for an env sweep — the
	// predicted transition boundaries an adaptive sweep measures around.
	EnvPlan = analysis.EnvPlan
	// AdaptiveSweepStats is the adaptive sweep's measurement ledger.
	AdaptiveSweepStats = core.AdaptiveSweepStats
	// MachineConfig describes a simulated machine for Runner.RegisterMachine;
	// CacheConfig, PredictorConfig and Penalties are its components.
	MachineConfig   = machine.Config
	CacheConfig     = machine.CacheConfig
	PredictorConfig = machine.PredictorConfig
	Penalties       = machine.Penalties
)

// Pipeline stages, re-exported for errors.As inspection of failures.
const (
	StageCompile = core.StageCompile
	StageLink    = core.StageLink
	StageLoad    = core.StageLoad
	StageMeasure = core.StageMeasure
)

// NewRunner builds a Runner at the given workload size.
func NewRunner(size Size) *Runner { return core.NewRunner(size) }

// NewLab builds a Lab for regenerating the paper's tables and figures.
func NewLab(opt LabOptions) *Lab { return experiments.NewLab(opt) }

// NewLabCtx builds a Lab whose measurements stop when ctx is cancelled
// and, when ck is non-nil, checkpoint into ck for crash-safe resume.
func NewLabCtx(ctx context.Context, opt LabOptions, ck Checkpoint) *Lab {
	return experiments.NewLabCtx(ctx, opt, ck)
}

// Journal is the append-only JSONL Checkpoint implementation.
type Journal = journal.Journal

// OpenJournal opens (creating if absent) a JSONL checkpoint journal,
// tolerating the torn final record a kill mid-write leaves behind.
func OpenJournal(path string) (*Journal, error) { return journal.Open(path) }

// ExperimentIDs lists the regenerable artifacts (F1–F9, T1–T4).
func ExperimentIDs() []string { return experiments.IDs() }

// Benchmark looks up a suite member by name ("perlbench", "bzip2", …).
func Benchmark(name string) (*BenchmarkProgram, bool) { return bench.ByName(name) }

// Benchmarks returns the full suite, sorted by name.
func Benchmarks() []*BenchmarkProgram { return bench.All() }

// Machines lists the simulated platform names accepted in Setup.Machine.
func Machines() []string { return []string{"p4", "core2", "m5"} }

// DefaultSetup returns the baseline setup experiments perturb: gcc -O2,
// 512-byte environment, default link order.
func DefaultSetup(machineName string) Setup { return core.DefaultSetup(machineName) }

// EnvSweep measures the O3-over-O2 speedup at each environment size.
func EnvSweep(ctx context.Context, r *Runner, b *BenchmarkProgram, setup Setup, sizes []uint64) ([]EnvPoint, error) {
	return core.Sweep(ctx, r, b, core.EnvGrid(setup, sizes), nil)
}

// EnvSweepCheckpointed is EnvSweep with checkpoint/resume: completed
// points are recorded in ck and replayed on a rerun.
func EnvSweepCheckpointed(ctx context.Context, r *Runner, b *BenchmarkProgram, setup Setup, sizes []uint64, ck Checkpoint) ([]EnvPoint, error) {
	return core.Sweep(ctx, r, b, core.EnvGrid(setup, sizes), ck)
}

// DefaultEnvSizes returns the canonical 0–4 KiB environment sweep.
func DefaultEnvSizes(step uint64) []uint64 { return core.DefaultEnvSizes(step) }

// PlanEnvSweep asks the bias oracle for an env sweep's predicted transition
// boundaries — the plan EnvSweepAdaptive measures against.
func PlanEnvSweep(r *Runner, b *BenchmarkProgram, setup Setup, sizes []uint64) (*EnvPlan, error) {
	return core.PlanEnvSweep(r, b, setup, sizes)
}

// EnvSweepAdaptive is EnvSweep guided by the bias oracle: it measures the
// predicted transition boundaries plus verification points, interpolates
// plateaus that verify, and re-measures densely any plateau whose
// verification fails — byte-identical to EnvSweep when predictions hold,
// still correct when they don't.
func EnvSweepAdaptive(ctx context.Context, r *Runner, b *BenchmarkProgram, setup Setup, sizes []uint64, ck Checkpoint) ([]EnvPoint, AdaptiveSweepStats, error) {
	plan, err := core.PlanEnvSweep(r, b, setup, sizes)
	if err != nil {
		return nil, AdaptiveSweepStats{GridPoints: len(sizes)}, err
	}
	return core.SweepPlanned(ctx, r, b, core.EnvGrid(setup, sizes), plan, ck)
}

// LinkSweep measures the speedup under default, alphabetical, and n random
// link orders.
func LinkSweep(ctx context.Context, r *Runner, b *BenchmarkProgram, setup Setup, n int, seed uint64) ([]LinkPoint, error) {
	return LinkSweepCheckpointed(ctx, r, b, setup, n, seed, nil)
}

// LinkSweepCheckpointed is LinkSweep with checkpoint/resume.
func LinkSweepCheckpointed(ctx context.Context, r *Runner, b *BenchmarkProgram, setup Setup, n int, seed uint64, ck Checkpoint) ([]LinkPoint, error) {
	return core.Sweep(ctx, r, b, core.LinkGrid(setup, core.LinkCandidates(r.UnitNames(b), n, seed)), ck)
}

// TenantSweep measures b's O3-over-O2 speedup against every co-runner in
// corunners (core.TenantIdle for an idle machine), sharing one machine's
// cache/TLB/predictor hierarchy between subject and tenant.
func TenantSweep(ctx context.Context, r *Runner, b *BenchmarkProgram, setup Setup, corunners []string) ([]TenantPoint, error) {
	return core.Sweep(ctx, r, b, core.TenantGrid(setup, corunners), nil)
}

// DefaultCoRunners is the canonical co-runner panel the tenant sweep
// measures: an idle machine plus a spread of cache-light to cache-hungry
// tenants.
func DefaultCoRunners() []string { return core.DefaultCoRunners() }

// EstimateSpeedup runs the paper's remedy: n randomized setups and a
// confidence interval for the speedup.
func EstimateSpeedup(ctx context.Context, r *Runner, b *BenchmarkProgram, base Setup, n int, seed uint64) (*RobustEstimate, error) {
	return core.EstimateSpeedup(ctx, r, b, base, n, seed)
}

// EstimateSpeedupAdaptive samples randomized setups until the 95% CI
// half-width falls below tol, answering "how many setups are enough?".
func EstimateSpeedupAdaptive(ctx context.Context, r *Runner, b *BenchmarkProgram, base Setup, tol float64, minN, maxN int, seed uint64) (*RobustEstimate, error) {
	return core.EstimateSpeedupAdaptive(ctx, r, b, base, tol, minN, maxN, seed)
}

// CausalStudy intervenes on the stack displacement directly and correlates
// hardware events with cycles.
func CausalStudy(ctx context.Context, r *Runner, b *BenchmarkProgram, setup Setup, maxShift, step uint64) (*CausalReport, error) {
	return core.CausalStudy(ctx, r, b, setup, maxShift, step)
}

// CompareConfigs robustly compares two toolchain configurations on one
// benchmark across shared randomized setups (paired design).
func CompareConfigs(ctx context.Context, r *Runner, b *BenchmarkProgram, base Setup, a, bCfg CompilerConfig, n int, seed uint64) (*Comparison, error) {
	return core.CompareConfigs(ctx, r, b, base, a, bCfg, n, seed)
}

// IsTransient reports whether err is marked transient (retry may succeed).
func IsTransient(err error) bool { return core.IsTransient(err) }

// NewBiasReport summarizes a slice of speedups from any sweep.
func NewBiasReport(benchName, machineName, factor string, speedups []float64) BiasReport {
	return core.NewBiasReport(benchName, machineName, factor, speedups)
}
