package experiments

import (
	"fmt"

	"biaslab/internal/bench"
	"biaslab/internal/core"
	"biaslab/internal/machine"
	"biaslab/internal/report"
)

// AblationLink (experiment A2) is the companion of A1 for the second bias
// channel: which front-end mechanisms carry the *link-order* bias on the
// Core 2 model?
//
//   - no-btb:   branch-target-buffer redirects cost nothing (infinite BTB)
//   - aligned:  misaligned-entry bubbles disabled
//   - hi-assoc: L1I made 16-way (I-cache conflict misses largely removed)
//   - none:     all three off
//
// Link order only moves code, so any residual variation under "none" bounds
// the modelling noise of the remaining mechanisms (gshare aliasing, fetch-
// block boundaries, and D-side effects of moved globals).
func (l *Lab) AblationLink() (*Result, error) {
	base := machine.Core2()

	noBTB := base
	noBTB.Name = "C2 no-btb"
	noBTB.Penalties.BTBRedirect = 0

	aligned := base
	aligned.Name = "C2 aligned"
	aligned.Penalties.MisalignedEntry = 0

	hiAssoc := base
	hiAssoc.Name = "C2 hi-assoc-i"
	hiAssoc.L1I.Ways = 64

	none := base
	none.Name = "C2 none"
	none.Penalties.BTBRedirect = 0
	none.Penalties.MisalignedEntry = 0
	none.L1I.Ways = 64

	variants := []struct {
		key string
		cfg machine.Config
	}{
		{"core2", base},
		{"c2-nobtb", noBTB},
		{"c2-aligned", aligned},
		{"c2-hiassoci", hiAssoc},
		{"c2-none", none},
	}
	for _, v := range variants[1:] {
		if err := l.Runner.RegisterMachine(v.key, v.cfg); err != nil {
			return nil, err
		}
	}

	t := &report.Table{
		Title:   "A2: mechanism ablation — link-order bias on Core 2 variants",
		Headers: []string{"variant", "benchmark", "speedup range", "vs baseline"},
	}
	benchNames := []string{"sjeng", "gobmk", "bzip2", "hmmer"}
	baselines := map[string]float64{}
	for _, v := range variants {
		for _, name := range benchNames {
			b, _ := bench.ByName(name)
			setup := core.DefaultSetup(v.key)
			points, err := core.Sweep(l.ctx, l.Runner, b, core.LinkGrid(setup, core.LinkCandidates(l.Runner.UnitNames(b), l.opt.LinkOrders, l.opt.Seed)), l.ck)
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
			if v.key == "core2" {
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
		ID:    "A2",
		Title: t.Title,
		Text:  t.String(),
		CSV:   t.CSV(),
	}, nil
}
