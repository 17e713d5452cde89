package core

import (
	"fmt"

	"biaslab/internal/analysis"
	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/linker"
	"biaslab/internal/loader"
)

// planChannelSweep folds a scalar code-layout channel's ChannelConflictMap
// at each optimization level into the plan shape the env oracle emits.
// Unlike the env oracle, which predicts from one binary because only the
// stack moves, a code channel needs every layout in hand: the proofs are
// relations between pairs of binaries.
func planChannelSweep(r *Runner, b *bench.Benchmark, g Grid[ChannelPoint], setup Setup, values []uint64) (*analysis.EnvPlan, error) {
	maps := make([]*analysis.ChannelConflictMap, 0, 2)
	for _, lvl := range []compiler.Level{compiler.O2, compiler.O3} {
		cm, err := ChannelConflictMap(r, b, g, setup, values, lvl)
		if err != nil {
			return nil, err
		}
		maps = append(maps, cm)
	}
	return analysis.NewChannelPlan(b.Name, setup.Machine, values, maps...)
}

// ChannelConflictMap is the channel comparator's pairwise verdicts for a
// scalar code-layout channel at one optimization level: it links the
// exact executable the sweep g measures at every grid value, runs the
// interprocedural engine once and relocates its result to every other
// layout (analysis.NewChannelLayouts). `biaslab predict -channel` prints
// one level's map; planChannelSweep folds both levels' maps into a plan.
func ChannelConflictMap(r *Runner, b *bench.Benchmark, g Grid[ChannelPoint], setup Setup, values []uint64, lvl compiler.Level) (*analysis.ChannelConflictMap, error) {
	mcfg, err := r.MachineConfig(setup.Machine)
	if err != nil {
		return nil, err
	}
	envBytes := setup.EnvBytes
	if envBytes == 0 {
		envBytes = DefaultEnvBytes
	}
	sp := loader.InitialSP(loader.Options{
		Env:        loader.SyntheticEnv(envBytes),
		Args:       []string{b.Name},
		StackShift: setup.StackShift,
	})
	exes := make([]*linker.Executable, len(values))
	for i := range values {
		if exes[i], err = r.Executable(b, g.Setups[i].WithLevel(lvl)); err != nil {
			return nil, err
		}
	}
	_, prog, err := r.Compiled(b, setup.WithLevel(lvl).Compiler)
	if err != nil {
		return nil, err
	}
	layouts, err := analysis.NewChannelLayouts(values, exes, prog)
	if err != nil {
		return nil, fmt.Errorf("core: planning %s sweep of %s: %w", g.Kind, b.Name, err)
	}
	return analysis.BuildChannelConflictMap(b.Name, setup.Machine, g.Kind, mcfg, sp, layouts), nil
}

// PlanPadSweep asks the channel comparator where a text-padding sweep of b
// under setup can transition. The plan is the same struct `biaslab predict
// -channel pad -json` emits.
func PlanPadSweep(r *Runner, b *bench.Benchmark, setup Setup, values []uint64) (*analysis.EnvPlan, error) {
	return planChannelSweep(r, b, PadGrid(setup, values), setup, values)
}

// PlanBaseSweep asks the channel comparator where an image-base sweep of b
// under setup can transition.
func PlanBaseSweep(r *Runner, b *bench.Benchmark, setup Setup, values []uint64) (*analysis.EnvPlan, error) {
	return planChannelSweep(r, b, BaseGrid(setup, values), setup, values)
}
