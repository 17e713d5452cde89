package experiments

import (
	"fmt"

	"biaslab/internal/bench"
	"biaslab/internal/core"
	"biaslab/internal/machine"
	"biaslab/internal/report"
)

// Ablation (experiment A1) asks *which microarchitectural mechanisms carry
// the environment-size bias* by re-running the env sweep on variants of the
// Pentium 4 model with individual features switched off:
//
//   - no-alias: 4 KiB store-aliasing replays disabled
//   - hi-assoc: L1 caches made 16-way (conflict misses largely removed)
//   - no-tlb:   TLB miss penalties zeroed
//   - neither:  no-alias + hi-assoc combined
//
// If the paper's causal story is right, removing the aliasing hazard and
// the conflict-miss channel should collapse most of the bias; the table
// reports the residual speedup range per variant. This is the design-choice
// ablation DESIGN.md calls out: it validates that the simulator's bias is
// produced by the intended mechanisms rather than by modelling noise.
func (l *Lab) Ablation() (*Result, error) {
	base := machine.PentiumIV()

	noAlias := base
	noAlias.Name = "P4 no-alias"
	noAlias.StoreBufferDepth = 0
	noAlias.Penalties.Alias4K = 0

	hiAssoc := base
	hiAssoc.Name = "P4 hi-assoc"
	hiAssoc.L1I.Ways = 16
	hiAssoc.L1D.Ways = 16

	noTLB := base
	noTLB.Name = "P4 no-tlb"
	noTLB.Penalties.ITLBMiss = 0
	noTLB.Penalties.DTLBMiss = 0

	neither := noAlias
	neither.Name = "P4 neither"
	neither.L1I.Ways = 16
	neither.L1D.Ways = 16

	variants := []struct {
		key string
		cfg machine.Config
	}{
		{"p4", base},
		{"p4-noalias", noAlias},
		{"p4-hiassoc", hiAssoc},
		{"p4-notlb", noTLB},
		{"p4-neither", neither},
	}
	for _, v := range variants[1:] {
		if err := l.Runner.RegisterMachine(v.key, v.cfg); err != nil {
			return nil, err
		}
	}

	sizes := core.DefaultEnvSizes(l.opt.EnvStep)
	t := &report.Table{
		Title:   "A1: mechanism ablation — env-size bias on Pentium 4 variants",
		Headers: []string{"variant", "benchmark", "speedup range", "vs baseline"},
	}
	benchNames := []string{"perlbench", "lbm", "sjeng", "mcf"}
	baselines := map[string]float64{}
	for _, v := range variants {
		for _, name := range benchNames {
			b, _ := bench.ByName(name)
			setup := core.DefaultSetup(v.key)
			points, err := core.Sweep(l.ctx, l.Runner, b, core.EnvGrid(setup, sizes), l.ck)
			if err != nil {
				return nil, err
			}
			min, max := points[0].Speedup, points[0].Speedup
			for _, p := range points {
				if p.Speedup < min {
					min = p.Speedup
				}
				if p.Speedup > max {
					max = p.Speedup
				}
			}
			rng := max - min
			if v.key == "p4" {
				baselines[name] = rng
				t.AddRow(v.cfg.Name, name, rng, "(baseline)")
				continue
			}
			rel := "—"
			if baselines[name] > 0 {
				rel = fmt.Sprintf("%.0f%%", 100*rng/baselines[name])
			}
			t.AddRow(v.cfg.Name, name, rng, rel)
		}
	}
	return &Result{
		ID:    "A1",
		Title: t.Title,
		Text:  t.String(),
		CSV:   t.CSV(),
	}, nil
}
