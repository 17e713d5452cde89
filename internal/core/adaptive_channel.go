package core

import (
	"fmt"

	"biaslab/internal/analysis"
	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/loader"
)

// planChannelSweep builds the dataflow-backed plan for a scalar code-layout
// channel: it links the exact executable the sweep will measure at every
// grid value and both optimization levels, runs the interprocedural engine
// over each, and asks the channel comparator for pairwise verdicts. Unlike
// the env oracle — which predicts from one binary because only the stack
// moves — a code channel needs every layout in hand: the proofs are
// relations between pairs of binaries, not properties of one.
func planChannelSweep(r *Runner, b *bench.Benchmark, g Grid[ChannelPoint], setup Setup, values []uint64) (*analysis.EnvPlan, error) {
	mcfg, err := r.machineConfig(setup.Machine)
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
	maps := make([]*analysis.ChannelConflictMap, 0, 2)
	for _, lvl := range []compiler.Level{compiler.O2, compiler.O3} {
		layouts := make([]*analysis.ChannelLayout, 0, len(values))
		for i, v := range values {
			s := g.Setups[i].WithLevel(lvl)
			exe, err := r.Executable(b, s)
			if err != nil {
				return nil, err
			}
			prog, err := r.program(b, s.Compiler)
			if err != nil {
				return nil, err
			}
			cl, err := analysis.NewChannelLayout(v, exe, prog)
			if err != nil {
				return nil, fmt.Errorf("core: planning %s sweep of %s: %w", g.Kind, b.Name, err)
			}
			layouts = append(layouts, cl)
		}
		maps = append(maps, analysis.BuildChannelConflictMap(b.Name, setup.Machine, g.Kind, mcfg, sp, layouts))
	}
	return analysis.NewChannelPlan(b.Name, setup.Machine, values, maps...)
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
