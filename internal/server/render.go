package server

import (
	"fmt"
	"strings"

	"biaslab/internal/core"
	"biaslab/internal/report"
)

// The renderers below are the single text/CSV code path for results:
// cmd/biaslab calls them for local runs, the daemon serves them on
// GET /v1/results/{key}?format=text|csv, and the client mode renders
// fetched results through them — which is what makes a remote result
// byte-identical to the same command run locally.

// sweeper is a sweep payload: its points as a table, and its bias report.
type sweeper interface {
	sweep() (*report.Table, core.BiasReport)
}

// payload returns the one payload res.Kind names, or an error when the
// kind is unknown or its payload is missing.
func (res *Result) payload() (any, error) {
	var p any
	var ok bool
	switch res.Kind {
	case KindRun:
		p, ok = res.Run, res.Run != nil
	case KindSweepEnv:
		p, ok = res.EnvSweep, res.EnvSweep != nil
	case KindSweepLink:
		p, ok = res.LinkSweep, res.LinkSweep != nil
	case KindSweepPad, KindSweepBase:
		p, ok = res.ChannelSweep, res.ChannelSweep != nil
	case KindSweepTenant:
		p, ok = res.TenantSweep, res.TenantSweep != nil
	case KindRandomize:
		p, ok = res.Randomize, res.Randomize != nil
	case KindExperiment:
		p, ok = res.Experiment, res.Experiment != nil
	default:
		return nil, fmt.Errorf("server: cannot render result of kind %q", res.Kind)
	}
	if !ok {
		return nil, fmt.Errorf("server: %s result missing payload", res.Kind)
	}
	return p, nil
}

// RenderText renders a result exactly as the equivalent biaslab subcommand
// prints it, trailing newline included.
func RenderText(res *Result) (string, error) {
	p, err := res.payload()
	if err != nil {
		return "", err
	}
	switch r := p.(type) {
	case *RunResult:
		var sb strings.Builder
		fmt.Fprintf(&sb, "%s under %s (%s workload)\n\n", r.Benchmark, r.Setup, r.Size)
		sb.WriteString(r.Counters.String())
		fmt.Fprintf(&sb, "checksum             %12d\n", r.Checksum)
		return sb.String(), nil
	case sweeper:
		t, rep := r.sweep()
		return t.String() + "\n" + rep.String() + "\n", nil
	case *RandomizeResult:
		verdict := "INCONCLUSIVE: the interval contains 1.0 — a single-setup paper would still have printed a number"
		if r.Conclusive {
			verdict = "the randomized experiment supports a direction: the interval excludes 1.0"
		}
		return r.Estimate.String() + "\n" +
			r.Estimate.EffectString() + "\n" +
			r.Estimate.Test.String() + "\n" +
			verdict + "\n", nil
	}
	// payload admits nothing else: this is an experiment.
	return p.(*ExperimentResult).Text + "\n", nil
}

// RenderCSV renders a result's CSV form.
func RenderCSV(res *Result) (string, error) {
	p, err := res.payload()
	if err != nil {
		return "", err
	}
	switch r := p.(type) {
	case *RunResult:
		var sb strings.Builder
		sb.WriteString("counter,value\n")
		fmt.Fprintf(&sb, "cycles,%d\n", r.Cycles)
		fmt.Fprintf(&sb, "instructions,%d\n", r.Counters.Instructions)
		fmt.Fprintf(&sb, "checksum,%d\n", r.Checksum)
		return sb.String(), nil
	case sweeper:
		t, _ := r.sweep()
		return t.CSV(), nil
	case *RandomizeResult:
		var sb strings.Builder
		sb.WriteString("setup,speedup\n")
		for i, sp := range r.Estimate.Speedups {
			fmt.Fprintf(&sb, "%d,%g\n", i, sp)
		}
		// Effect-size footer: the same hierarchical interval and
		// Speedup-Test verdict the text renderer prints, as summary rows.
		center, half := r.Estimate.EffectPct()
		fmt.Fprintf(&sb, "effect_pct,%g\n", center)
		fmt.Fprintf(&sb, "effect_pct_half_width_95,%g\n", half)
		fmt.Fprintf(&sb, "hier_ci_lo,%g\n", r.Estimate.HierCI.Lo)
		fmt.Fprintf(&sb, "hier_ci_hi,%g\n", r.Estimate.HierCI.Hi)
		fmt.Fprintf(&sb, "speedup_test_verdict,%s\n", r.Estimate.Test.Verdict)
		fmt.Fprintf(&sb, "speedup_test_p,%g\n", r.Estimate.Test.P)
		return sb.String(), nil
	}
	// payload admits nothing else: this is an experiment.
	r := p.(*ExperimentResult)
	return fmt.Sprintf("# %s: %s\n%s", r.ID, r.Title, r.CSV), nil
}

// sweep builds the sweep-env table exactly as cmd/biaslab always
// rendered it.
func (r *EnvSweepResult) sweep() (*report.Table, core.BiasReport) {
	t := &report.Table{
		Title:   fmt.Sprintf("O3-over-O2 speedup of %s vs environment size (%s)", r.Benchmark, r.Machine),
		Headers: []string{"env bytes", "cycles O2", "cycles O3", "speedup"},
	}
	for _, p := range r.Points {
		t.AddRow(p.EnvBytes, p.CyclesBase, p.CyclesOpt, p.Speedup)
	}
	return t, r.Report
}

// sweep builds the sweep-pad / sweep-base table.
func (r *ChannelSweepResult) sweep() (*report.Table, core.BiasReport) {
	header := "pad bytes"
	if r.Channel == "base" {
		header = "text base"
	}
	t := &report.Table{
		Title:   fmt.Sprintf("O3-over-O2 speedup of %s vs %s (%s)", r.Benchmark, header, r.Machine),
		Headers: []string{header, "cycles O2", "cycles O3", "speedup"},
	}
	for _, p := range r.Points {
		t.AddRow(p.Value, p.CyclesBase, p.CyclesOpt, p.Speedup)
	}
	return t, r.Report
}

// sweep builds the sweep-tenant table.
func (r *TenantSweepResult) sweep() (*report.Table, core.BiasReport) {
	t := &report.Table{
		Title: fmt.Sprintf("O3-over-O2 speedup of %s vs co-runner at %s, quantum %d (%s)",
			r.Benchmark, r.CoLevel, r.Quantum, r.Machine),
		Headers: []string{"co-runner", "cycles O2", "cycles O3", "speedup"},
	}
	for _, p := range r.Points {
		t.AddRow(p.CoRunner, p.CyclesBase, p.CyclesOpt, p.Speedup)
	}
	return t, r.Report
}

// sweep builds the sweep-link table.
func (r *LinkSweepResult) sweep() (*report.Table, core.BiasReport) {
	t := &report.Table{
		Title:   fmt.Sprintf("O3-over-O2 speedup of %s vs link order (%s)", r.Benchmark, r.Machine),
		Headers: []string{"order", "cycles O2", "cycles O3", "speedup"},
	}
	for _, p := range r.Points {
		t.AddRow(p.Label, p.CyclesBase, p.CyclesOpt, p.Speedup)
	}
	return t, r.Report
}
