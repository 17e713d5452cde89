// Package experiments regenerates every table and figure of the paper's
// evaluation from the biaslab substrates. Each experiment returns a Result
// holding the rendered text artifact and a CSV twin; the Lab memoizes the
// expensive suite-wide sweeps so that e.g. Figure 3 and Table 2 share one
// set of measurements.
//
// Experiment identifiers follow DESIGN.md: F1–F2 (perlbench environment
// sweep), F3–F5 (suite environment studies on Core 2, Pentium 4, m5),
// F6–F7 (suite link-order studies), F8 (causal analysis), F9 (setup
// randomization), T1 (benchmark suite), T2 (bias vs effect), T3
// (literature survey), T4 (both compilers).
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/core"
	"biaslab/internal/report"
	"biaslab/internal/stats"
	"biaslab/internal/survey"
)

// Options tune experiment cost and provenance.
type Options struct {
	// Size selects the workload (default SizeSmall).
	Size bench.Size
	// EnvStep is the environment-size step for suite sweeps (default 256).
	EnvStep uint64
	// FineStep is the step for the single-benchmark Figures 1–2
	// (default 64).
	FineStep uint64
	// LinkOrders is the number of random link orders (default 16; the
	// paper used 32).
	LinkOrders int
	// RandomSetups is the sample size for setup randomization (default 16;
	// the paper recommends "many").
	RandomSetups int
	// Seed makes every randomized choice reproducible.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.EnvStep == 0 {
		o.EnvStep = 256
	}
	if o.FineStep == 0 {
		o.FineStep = 64
	}
	if o.LinkOrders == 0 {
		o.LinkOrders = 16
	}
	if o.RandomSetups == 0 {
		o.RandomSetups = 16
	}
	if o.Seed == 0 {
		o.Seed = 20090307 // ASPLOS 2009
	}
	return o
}

// Result is one regenerated artifact.
type Result struct {
	ID    string
	Title string
	Text  string
	CSV   string
}

// Lab runs experiments, memoizing suite-wide studies. A Lab is used by one
// goroutine at a time; the Runner underneath is what parallelizes.
type Lab struct {
	Runner *core.Runner
	opt    Options

	// ctx cancels every measurement the Lab starts; ck (optional) records
	// completed sweep points and finished experiments so an interrupted
	// `biaslab all` resumes where it stopped.
	ctx context.Context
	ck  core.Checkpoint

	envStudies  map[string]studyData // machine → data
	linkStudies map[string]studyData
}

type studyData struct {
	reports []core.BiasReport
	raw     map[string][]float64
}

// NewLab builds a Lab with a background context and no checkpoint.
func NewLab(opt Options) *Lab {
	return NewLabCtx(context.Background(), opt, nil)
}

// NewLabCtx builds a Lab whose measurements are cancelled with ctx and
// checkpointed into ck (nil disables checkpointing).
func NewLabCtx(ctx context.Context, opt Options, ck core.Checkpoint) *Lab {
	opt = opt.withDefaults()
	return &Lab{
		Runner:      core.NewRunner(opt.Size),
		opt:         opt,
		ctx:         ctx,
		ck:          ck,
		envStudies:  map[string]studyData{},
		linkStudies: map[string]studyData{},
	}
}

// Options returns the effective options.
func (l *Lab) Options() Options { return l.opt }

// key renders the options that affect measured values, namespacing every
// checkpoint record so a journal written at one size/seed can never be
// replayed at another.
func (o Options) key() string {
	return fmt.Sprintf("size=%d envstep=%d finestep=%d linkorders=%d randomsetups=%d seed=%d",
		o.Size, o.EnvStep, o.FineStep, o.LinkOrders, o.RandomSetups, o.Seed)
}

func (l *Lab) envStudy(machineName string) (studyData, error) {
	if d, ok := l.envStudies[machineName]; ok {
		return d, nil
	}
	reports, raw, err := core.SuiteEnvStudy(l.ctx, l.Runner, machineName, core.DefaultEnvSizes(l.opt.EnvStep), compiler.GCC, l.ck)
	if err != nil {
		return studyData{}, err
	}
	d := studyData{reports: reports, raw: raw}
	l.envStudies[machineName] = d
	return d, nil
}

func (l *Lab) linkStudy(machineName string) (studyData, error) {
	if d, ok := l.linkStudies[machineName]; ok {
		return d, nil
	}
	reports, raw, err := core.SuiteLinkStudy(l.ctx, l.Runner, machineName, l.opt.LinkOrders, l.opt.Seed, compiler.GCC, l.ck)
	if err != nil {
		return studyData{}, err
	}
	d := studyData{reports: reports, raw: raw}
	l.linkStudies[machineName] = d
	return d, nil
}

// perlbenchSweep runs the fine-grained env sweep behind Figures 1 and 2.
func (l *Lab) perlbenchSweep() ([]core.EnvPoint, error) {
	b, _ := bench.ByName("perlbench")
	return core.Sweep(l.ctx, l.Runner, b, core.EnvGrid(core.DefaultSetup("core2"), core.DefaultEnvSizes(l.opt.FineStep)), l.ck)
}

// Figure1 regenerates Figure 1: cycles of the perlbench analogue at O2 and
// O3 as the UNIX environment grows, on the Core 2 model.
func (l *Lab) Figure1() (*Result, error) {
	points, err := l.perlbenchSweep()
	if err != nil {
		return nil, err
	}
	base := report.Series{Name: "O2"}
	opt := report.Series{Name: "O3"}
	for _, p := range points {
		x := float64(p.EnvBytes)
		base.X = append(base.X, x)
		base.Y = append(base.Y, float64(p.CyclesBase))
		opt.X = append(opt.X, x)
		opt.Y = append(opt.Y, float64(p.CyclesOpt))
	}
	series := []report.Series{base, opt}
	title := "Figure 1: perlbench cycles vs environment size (Core 2, gcc)"
	return &Result{
		ID:    "F1",
		Title: title,
		Text:  report.LineChart(title, series, 72, 18, 0, false),
		CSV:   report.SeriesCSV(series),
	}, nil
}

// Figure2 regenerates Figure 2: the O3-over-O2 speedup of the perlbench
// analogue as a function of environment size.
func (l *Lab) Figure2() (*Result, error) {
	points, err := l.perlbenchSweep()
	if err != nil {
		return nil, err
	}
	s := report.Series{Name: "speedup O3/O2"}
	for _, p := range points {
		s.X = append(s.X, float64(p.EnvBytes))
		s.Y = append(s.Y, p.Speedup)
	}
	series := []report.Series{s}
	title := "Figure 2: perlbench O3 speedup vs environment size (Core 2, gcc)"
	return &Result{
		ID:    "F2",
		Title: title,
		Text:  report.LineChart(title, series, 72, 18, 1.0, true),
		CSV:   report.SeriesCSV(series),
	}, nil
}

func (l *Lab) suiteEnvFigure(id, machineName, machineLabel string) (*Result, error) {
	d, err := l.envStudy(machineName)
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("%s: O3 speedup across environment sizes, all benchmarks (%s, gcc)", id, machineLabel)
	return &Result{
		ID:    id,
		Title: title,
		Text:  report.RangeChart(title, bench.Names(), d.raw, 1.0) + "\n" + biasReportTable(d.reports),
		CSV:   report.DistributionCSV(d.raw),
	}, nil
}

// Figure3 regenerates Figure 3 (Core 2), the paper's headline figure.
func (l *Lab) Figure3() (*Result, error) { return l.suiteEnvFigure("F3", "core2", "Core 2") }

// Figure4 regenerates Figure 4 (Pentium 4).
func (l *Lab) Figure4() (*Result, error) { return l.suiteEnvFigure("F4", "p4", "Pentium 4") }

// Figure5 regenerates Figure 5 (m5 O3CPU).
func (l *Lab) Figure5() (*Result, error) { return l.suiteEnvFigure("F5", "m5", "m5 O3CPU") }

func (l *Lab) suiteLinkFigure(id, machineName, machineLabel string) (*Result, error) {
	d, err := l.linkStudy(machineName)
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("%s: O3 speedup across link orders (default, alphabetical, %d random), all benchmarks (%s, gcc)",
		id, l.opt.LinkOrders, machineLabel)
	return &Result{
		ID:    id,
		Title: title,
		Text:  report.RangeChart(title, bench.Names(), d.raw, 1.0) + "\n" + biasReportTable(d.reports),
		CSV:   report.DistributionCSV(d.raw),
	}, nil
}

// Figure6 regenerates Figure 6: link-order study on Core 2.
func (l *Lab) Figure6() (*Result, error) { return l.suiteLinkFigure("F6", "core2", "Core 2") }

// Figure7 regenerates Figure 7: link-order study on m5 O3CPU.
func (l *Lab) Figure7() (*Result, error) { return l.suiteLinkFigure("F7", "m5", "m5 O3CPU") }

func biasReportTable(reports []core.BiasReport) string {
	t := &report.Table{Headers: []string{"benchmark", "min", "median", "max", "range", "bias/effect", "flips sign"}}
	for _, rep := range reports {
		t.AddRow(rep.Benchmark, rep.Speedups.Min, rep.Speedups.Median, rep.Speedups.Max,
			rep.Speedups.Range(), rep.BiasOverEffect, rep.FlipsSign)
	}
	return t.String()
}

// Figure8 regenerates the causal-analysis case study: intervene on the
// stack displacement directly (no environment change) for the perlbench
// analogue on Core 2, and rank hardware events by correlation with cycles.
func (l *Lab) Figure8() (*Result, error) {
	b, _ := bench.ByName("perlbench")
	rep, err := core.CausalStudy(l.ctx, l.Runner, b, core.DefaultSetup("core2"), 1024, 128)
	if err != nil {
		return nil, err
	}
	s := report.Series{Name: "cycles"}
	for _, p := range rep.Points {
		s.X = append(s.X, float64(p.Shift))
		s.Y = append(s.Y, float64(p.Cycles))
	}
	title := "F8: causal analysis — cycles vs direct stack displacement (perlbench, Core 2)"
	var sb strings.Builder
	sb.WriteString(report.LineChart(title, []report.Series{s}, 72, 14, 0, false))
	fmt.Fprintf(&sb, "\nIntervention cycle range: %d; matched env-sweep range: %d; reproduces effect: %v\n",
		rep.CycleRange, rep.EnvRange, rep.Reproduces())
	t := &report.Table{Title: "Counter correlation with cycles across the intervention:",
		Headers: []string{"counter", "pearson", "spearman"}}
	for i, c := range rep.Correlations {
		if i >= 8 {
			break
		}
		t.AddRow(c.Counter, c.Pearson, c.Spearman)
	}
	sb.WriteString(t.String())
	return &Result{ID: "F8", Title: title, Text: sb.String(), CSV: report.SeriesCSV([]report.Series{s})}, nil
}

// Figure9 regenerates the setup-randomization figure: per benchmark, the
// randomized-setup confidence interval for the O3 speedup, contrasted with
// two single-setup point estimates a careless experimenter might publish.
func (l *Lab) Figure9() (*Result, error) {
	labels := []string{}
	means := map[string]float64{}
	intervals := map[string]stats.Interval{}
	t := &report.Table{Headers: []string{"benchmark", "robust mean", "95% CI", "effect ± (95%)", "sign-test", "conclusive", "setupA", "inCI", "setupB", "inCI"}}
	for _, b := range bench.All() {
		est, err := core.EstimateSpeedup(l.ctx, l.Runner, b, core.DefaultSetup("core2"), l.opt.RandomSetups, l.opt.Seed)
		if err != nil {
			return nil, err
		}
		labels = append(labels, b.Name)
		means[b.Name] = est.Mean
		intervals[b.Name] = est.TInterval
		verdicts, err := core.CompareSingleSetups(l.ctx, l.Runner, b, est, map[string]core.Setup{
			"A": {Machine: "core2", Compiler: compiler.Config{Level: compiler.O2}, EnvBytes: 8},
			"B": {Machine: "core2", Compiler: compiler.Config{Level: compiler.O2}, EnvBytes: 3333},
		})
		if err != nil {
			return nil, err
		}
		sort.Slice(verdicts, func(i, j int) bool { return verdicts[i].Label < verdicts[j].Label })
		center, half := est.EffectPct()
		t.AddRow(b.Name, est.Mean, est.TInterval.String(),
			fmt.Sprintf("%+.2f%%±%.2f%%", center, half),
			fmt.Sprintf("%s p=%.3f", est.Test.Verdict, est.Test.P),
			est.Conclusive(),
			verdicts[0].Speedup, verdicts[0].InInterval,
			verdicts[1].Speedup, verdicts[1].InInterval)
	}
	title := "F9: setup randomization — robust speedup intervals vs single-setup estimates (Core 2)"
	text := report.IntervalChart(title, labels, means, intervals, 1.0) + "\n" + t.String()
	return &Result{ID: "F9", Title: title, Text: text, CSV: t.CSV()}, nil
}

// Table1 regenerates the benchmark-suite table: the 12 SPEC CPU2006 C
// analogues with their kernels and dynamic footprint at the current size.
func (l *Lab) Table1() (*Result, error) {
	t := &report.Table{
		Title:   "T1: benchmark suite — SPEC CPU2006 C analogues",
		Headers: []string{"benchmark", "SPEC original", "kernel", "units", "instructions (O2)", "IPC"},
	}
	for _, b := range bench.All() {
		m, err := l.Runner.Measure(l.ctx, b, core.DefaultSetup("core2"))
		if err != nil {
			return nil, err
		}
		t.AddRow(b.Name, b.Spec, b.Kernel, len(l.Runner.UnitNames(b)),
			m.Counters.Instructions, m.Counters.IPC())
	}
	return &Result{ID: "T1", Title: t.Title, Text: t.String(), CSV: t.CSV()}, nil
}

// Table2 regenerates the bias-versus-effect table across all machines and
// both factors: is the bias large relative to the effect being measured?
func (l *Lab) Table2() (*Result, error) {
	t := &report.Table{
		Title:   "T2: magnitude of measurement bias vs the O3 effect",
		Headers: []string{"machine", "factor", "benchmark", "median speedup", "bias range", "bias/effect", "flips sign"},
	}
	flips, comparable := 0, 0
	for _, mach := range []string{"p4", "core2", "m5"} {
		env, err := l.envStudy(mach)
		if err != nil {
			return nil, err
		}
		for _, rep := range env.reports {
			t.AddRow(mach, "env size", rep.Benchmark, rep.Speedups.Median, rep.Speedups.Range(), rep.BiasOverEffect, rep.FlipsSign)
			if rep.FlipsSign {
				flips++
			}
			if rep.BiasOverEffect >= 0.5 {
				comparable++
			}
		}
	}
	for _, mach := range []string{"core2", "m5"} {
		link, err := l.linkStudy(mach)
		if err != nil {
			return nil, err
		}
		for _, rep := range link.reports {
			t.AddRow(mach, "link order", rep.Benchmark, rep.Speedups.Median, rep.Speedups.Range(), rep.BiasOverEffect, rep.FlipsSign)
			if rep.FlipsSign {
				flips++
			}
			if rep.BiasOverEffect >= 0.5 {
				comparable++
			}
		}
	}
	text := t.String() + fmt.Sprintf("\n%d rows flip sign; %d rows have bias ≥ half the measured effect.\n", flips, comparable)
	return &Result{ID: "T2", Title: t.Title, Text: text, CSV: t.CSV()}, nil
}

// Table3 regenerates the literature survey.
func (l *Lab) Table3() (*Result, error) {
	s := survey.Summarize(survey.Dataset())
	t := &report.Table{Headers: []string{"criterion", "count"}}
	t.AddRow("papers surveyed", s.Total)
	t.AddRow("with time-based evaluation", s.UsesSpeedup)
	t.AddRow("single platform", s.SinglePlatform)
	t.AddRow("reports environment", s.ReportsEnv)
	t.AddRow("reports link order", s.ReportsLink)
	t.AddRow("addresses bias", s.AddressesBias)
	return &Result{
		ID:    "T3",
		Title: "T3: literature survey of 133 papers (ASPLOS, PACT, PLDI, CGO)",
		Text:  s.Table(),
		CSV:   t.CSV(),
	}, nil
}

// Table4 regenerates the both-compilers claim: measurement bias appears
// under the gcc and the icc personality alike (perlbench env study on
// Core 2 under each).
func (l *Lab) Table4() (*Result, error) {
	t := &report.Table{
		Title:   "T4: environment-size bias with both compilers (Core 2)",
		Headers: []string{"compiler", "benchmark", "min", "median", "max", "range", "flips sign"},
	}
	sizes := core.DefaultEnvSizes(l.opt.EnvStep)
	for _, pers := range []compiler.Personality{compiler.GCC, compiler.ICC} {
		for _, name := range []string{"perlbench", "gcc", "lbm", "sjeng"} {
			b, _ := bench.ByName(name)
			setup := core.DefaultSetup("core2")
			setup.Compiler.Personality = pers
			points, err := core.Sweep(l.ctx, l.Runner, b, core.EnvGrid(setup, sizes), l.ck)
			if err != nil {
				return nil, err
			}
			rep := core.NewBiasReport(name, "core2", "env", core.Speedups(points))
			t.AddRow(pers.String(), name, rep.Speedups.Min, rep.Speedups.Median, rep.Speedups.Max,
				rep.Speedups.Range(), rep.FlipsSign)
		}
	}
	return &Result{ID: "T4", Title: t.Title, Text: t.String(), CSV: t.CSV()}, nil
}

// ByID runs a single experiment by identifier (case-insensitive). With a
// checkpoint attached, a finished experiment's full Result is recorded and
// replayed on a rerun — and the sweeps underneath checkpoint individual
// points, so even a half-finished experiment resumes mid-sweep.
func (l *Lab) ByID(id string) (*Result, error) {
	id = strings.ToUpper(id)
	expKey := "exp/" + id + "?" + l.opt.key()
	if l.ck != nil {
		var r Result
		ok, err := l.ck.Lookup(expKey, &r)
		if err != nil {
			return nil, err
		}
		if ok {
			return &r, nil
		}
	}
	r, err := l.byID(id)
	if err != nil {
		return nil, err
	}
	if l.ck != nil {
		if err := l.ck.Record(expKey, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (l *Lab) byID(id string) (*Result, error) {
	switch id {
	case "F1":
		return l.Figure1()
	case "F2":
		return l.Figure2()
	case "F3":
		return l.Figure3()
	case "F4":
		return l.Figure4()
	case "F5":
		return l.Figure5()
	case "F6":
		return l.Figure6()
	case "F7":
		return l.Figure7()
	case "F8":
		return l.Figure8()
	case "F9":
		return l.Figure9()
	case "T1":
		return l.Table1()
	case "T2":
		return l.Table2()
	case "T3":
		return l.Table3()
	case "T4":
		return l.Table4()
	case "A1":
		return l.Ablation()
	case "A2":
		return l.AblationLink()
	case "A3":
		return l.AblationPrefetch()
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (know F1–F9, T1–T4, A1–A3)", id)
}

// IDs lists every experiment in presentation order. A1–A3 are biaslab
// extensions (mechanism ablations and what-ifs), not paper artifacts.
func IDs() []string {
	return []string{"T1", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "T2", "T3", "T4", "F8", "F9", "A1", "A2", "A3"}
}

// All runs every experiment in order.
func (l *Lab) All() ([]*Result, error) {
	out := make([]*Result, 0, len(IDs()))
	for _, id := range IDs() {
		r, err := l.ByID(id)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out = append(out, r)
	}
	return out, nil
}
