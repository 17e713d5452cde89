// Command biaslab runs measurement-bias experiments from the command line
// and regenerates every table and figure of the paper's evaluation.
//
// Usage:
//
//	biaslab run -bench perlbench -machine core2 [-env 512] [-O2|-O3] [-icc] [-co-bench milc]
//	biaslab sweep-env -bench perlbench -machine core2 [-step 128] [-adaptive]
//	biaslab sweep-pad -bench hmmer -machine core2 [-adaptive]
//	biaslab sweep-base -bench hmmer -machine core2 [-adaptive]
//	biaslab sweep-link -bench gcc -machine core2 [-orders 16]
//	biaslab sweep-tenant -bench hmmer -machine core2 [-co-level O2] [-quantum 4096]
//	biaslab randomize -bench perlbench -machine core2 [-n 16] [-co-random|-co-bench milc]
//	biaslab spec run|expand|validate specs.json
//	biaslab causal -bench perlbench -machine core2
//	biaslab vet [files.cm...]
//	biaslab audit specs/*.json     # flag benchmarking crimes; exit 1 on findings
//	biaslab predict -bench hmmer -machine core2 [-channel env|pad|base] [-step 8] [-perms 24] [-json]
//	biaslab survey
//	biaslab experiment F3          # any of F1–F9, T1–T4
//	biaslab all                    # every experiment, in order
//	biaslab list                   # benchmarks, machines, experiments
//
// Global flags (before the subcommand): -size test|small|ref, -csv,
// -json, -timeout, -journal, -resume, -server.
//
// With -server URL, run/sweep-*/randomize/experiment/all/list
// execute on a biaslabd daemon instead of in-process: the job is submitted
// over HTTP, per-point progress streams to stderr, and the stored result is
// rendered through the same code paths as a local run — so remote output is
// byte-identical to local output, and resubmitting an identical command is
// a cache hit that performs zero new measurements. With -json, the
// canonical result JSON (exactly the daemon's stored bytes) is printed
// instead of rendered text.
//
// Interrupting a journalled run (Ctrl-C, SIGTERM, a timeout, or a hard
// kill) loses nothing: every completed measurement point is already on
// disk, and rerunning the same command with -resume replays the recorded
// points and measures only the missing ones, producing output identical
// to an uninterrupted run.
//
// Exit codes: 0 success, 1 failure, 2 usage error, 124 deadline exceeded,
// 130 interrupted.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"

	"biaslab"
	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/report"
	"biaslab/internal/server"
	"biaslab/internal/server/client"
	"biaslab/internal/survey"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// usageError marks errors that should exit 2 (bad invocation, not a
// failed experiment).
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

func usageErrorf(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// exitCode maps an error to the process exit status.
func exitCode(err error) int {
	var ue usageError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ue), errors.Is(err, flag.ErrHelp):
		return 2
	case errors.Is(err, context.DeadlineExceeded):
		return 124
	case errors.Is(err, context.Canceled):
		return 130
	}
	return 1
}

type app struct {
	ctx     context.Context
	size    biaslab.Size
	csv     bool
	jsonOut bool
	outDir  string
	server  string             // biaslabd base URL; "" means run locally
	ck      biaslab.Checkpoint // nil without -journal
}

func run(args []string) int {
	global := flag.NewFlagSet("biaslab", flag.ContinueOnError)
	sizeName := global.String("size", "small", "workload size: test, small, ref")
	csv := global.Bool("csv", false, "emit CSV instead of rendered text where available")
	jsonOut := global.Bool("json", false, "emit the canonical JSON result instead of rendered text")
	serverURL := global.String("server", "", "submit the job to a biaslabd daemon at this URL instead of measuring locally")
	outDir := global.String("out", "", "also write each experiment artifact (text + CSV) into this directory")
	timeout := global.Duration("timeout", 0, "abort the whole invocation after this long (e.g. 10m); 0 disables")
	journalPath := global.String("journal", "", "checkpoint completed measurement points into this JSONL file")
	resume := global.Bool("resume", false, "continue from an existing -journal instead of refusing to reuse it")
	global.Usage = usage
	err := func() error {
		if err := global.Parse(args); err != nil {
			return usageError{err}
		}
		rest := global.Args()
		if len(rest) == 0 {
			usage()
			return usageErrorf("missing subcommand")
		}
		size, err := parseSize(*sizeName)
		if err != nil {
			return usageError{err}
		}

		// Ctrl-C / SIGTERM cancel the context; in-flight measurements stop
		// at the next watchdog poll, journalled points are already synced,
		// and the run exits 130 ready to be resumed.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}

		a := &app{ctx: ctx, size: size, csv: *csv, jsonOut: *jsonOut, outDir: *outDir, server: *serverURL}
		if *csv && *jsonOut {
			return usageErrorf("-csv and -json are mutually exclusive")
		}
		if *serverURL != "" && *journalPath != "" {
			return usageErrorf("-server and -journal are mutually exclusive: the daemon keeps its own per-job journals")
		}
		if *resume && *journalPath == "" {
			return usageErrorf("-resume requires -journal")
		}
		if *journalPath != "" {
			if !*resume {
				if st, err := os.Stat(*journalPath); err == nil && st.Size() > 0 {
					return usageErrorf("journal %s already has recorded points; pass -resume to continue it or remove the file", *journalPath)
				}
			}
			j, err := biaslab.OpenJournal(*journalPath)
			if err != nil {
				return err
			}
			defer j.Close()
			if *resume {
				fmt.Fprintf(os.Stderr, "biaslab: resuming from %s (%d recorded points)\n", *journalPath, j.Len())
			}
			a.ck = j
		}
		return a.dispatch(rest[0], rest[1:])
	}()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "biaslab:", err)
	}
	return exitCode(err)
}

// serviceCommands are the subcommands that map onto biaslabd job kinds and
// so accept -server (remote execution) and -json (canonical result JSON),
// in usage order: one sweep per channel. figure and table are aliases of
// experiment.
func serviceCommands() []string {
	cmds := []string{"run"}
	for _, ch := range server.Channels() {
		cmds = append(cmds, ch.JobKind)
	}
	return append(cmds, "randomize", "spec", "experiment", "all", "list")
}

func (a *app) dispatch(cmd string, cmdArgs []string) error {
	cmds := serviceCommands()
	service := slices.Contains(cmds, cmd) || cmd == "figure" || cmd == "table"
	if a.server != "" && !service {
		return usageErrorf("%s runs locally only; -server supports %s and list", cmd, strings.Join(cmds[:len(cmds)-1], ", "))
	}
	if a.jsonOut && cmd != "predict" && cmd != "audit" && (!service || cmd == "all") {
		return usageErrorf("-json is not supported for %s", cmd)
	}
	if ch, ok := server.ChannelByKind(cmd); ok {
		return a.cmdSweep(ch, cmdArgs)
	}
	switch cmd {
	case "run":
		return a.cmdRun(cmdArgs)
	case "randomize":
		return a.cmdRandomize(cmdArgs)
	case "spec":
		return a.cmdSpec(cmdArgs)
	case "causal":
		return a.cmdCausal(cmdArgs)
	case "profile":
		return a.cmdProfile(cmdArgs)
	case "compare":
		return a.cmdCompare(cmdArgs)
	case "vet":
		return a.cmdVet(cmdArgs)
	case "audit":
		return a.cmdAudit(cmdArgs)
	case "predict":
		return a.cmdPredict(cmdArgs)
	case "survey":
		fmt.Print(survey.Summarize(survey.Dataset()).Table())
		return nil
	case "experiment", "figure", "table":
		return a.cmdExperiment(cmdArgs)
	case "all":
		return a.cmdAll(cmdArgs)
	case "list":
		return a.cmdList()
	case "help":
		usage()
		return nil
	}
	return usageErrorf("unknown subcommand %q (try 'biaslab help')", cmd)
}

func usage() {
	fmt.Fprint(os.Stderr, `biaslab — a measurement-bias laboratory (ASPLOS 2009 reproduction)

subcommands:
  run        measure one benchmark under one setup (optionally with a co-runner)
  sweep-env  vary the UNIX environment size, report the speedup swing
  sweep-pad  vary inter-object text padding, report the speedup swing
  sweep-base vary the image base address, report the speedup swing
  sweep-link vary the link order, report the speedup swing
  sweep-tenant vary the co-running benchmark, report the speedup swing
  randomize  estimate a speedup over randomized setups (the paper's remedy)
  spec       validate, expand or run a declarative bias-on-demand spec file
  causal     intervene on stack placement, rank hardware-event correlates
  profile    per-function cycle attribution for one run
  compare    robust A/B comparison of two toolchain configs across setups
  vet        lint benchmark programs (or .cm files); exit 1 on findings
  audit      flag benchmarking crimes in experiment spec files; exit 1 on findings
  predict    static bias oracle: predicted env/pad/base/link-order sensitivity
  survey     print the 133-paper literature-survey table
  experiment regenerate one artifact by id (F1..F9, T1..T4)
  all        regenerate every artifact
  list       list benchmarks, machines and experiments

global flags: -size test|small|ref   -csv   -json   -out <dir>
              -timeout <dur>   -journal <file>   -resume
              -server <url>  (run jobs on a biaslabd daemon)
`)
}

func parseSize(s string) (biaslab.Size, error) {
	switch s {
	case "test":
		return biaslab.SizeTest, nil
	case "small":
		return biaslab.SizeSmall, nil
	case "ref":
		return biaslab.SizeRef, nil
	}
	return 0, fmt.Errorf("unknown size %q", s)
}

// benchFlag adds and resolves the -bench flag.
func benchFlag(fs *flag.FlagSet) *string {
	return fs.String("bench", "perlbench", "benchmark name (see 'biaslab list')")
}

func machineFlag(fs *flag.FlagSet) *string {
	return fs.String("machine", "core2", "machine model: p4, core2, m5")
}

func lookupBench(name string) (*biaslab.BenchmarkProgram, error) {
	b, ok := biaslab.Benchmark(name)
	if !ok {
		names := make([]string, 0, len(bench.All()))
		for _, known := range bench.All() {
			names = append(names, known.Name)
		}
		return nil, usageErrorf("unknown benchmark %q; available: %s (see 'biaslab list')",
			name, strings.Join(names, ", "))
	}
	return b, nil
}

func (a *app) cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	benchName := benchFlag(fs)
	machineName := machineFlag(fs)
	env := fs.Uint64("env", 512, "environment size in bytes")
	o3 := fs.Bool("O3", false, "compile at -O3 (default -O2)")
	icc := fs.Bool("icc", false, "use the icc personality (default gcc)")
	coBench := fs.String("co-bench", "", "co-run this benchmark through the shared cache/TLB/predictor hierarchy")
	coLevel := fs.String("co-level", "", "co-runner optimization level (default O2)")
	quantum := fs.Uint64("quantum", 0, "interleave quantum in retired instructions (0 = engine default)")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	spec := server.JobSpec{
		Kind:     server.KindRun,
		Size:     a.size.String(),
		Bench:    *benchName,
		Machine:  *machineName,
		EnvBytes: *env,
		CoBench:  *coBench,
		CoLevel:  *coLevel,
		Quantum:  *quantum,
	}
	if *o3 {
		spec.Level = "O3"
	}
	if *icc {
		spec.Personality = "icc"
	}
	return a.runSpec(spec)
}

// cmdSweep is the one sweep subcommand behind every channel in the
// table: channel row in, job spec out.
func (a *app) cmdSweep(ch server.Channel, args []string) error {
	fs, spec := sweepFlags(ch, a.size.String())
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	return a.runSpec(spec())
}

// sweepFlags declares the flags of ch's sweep subcommand, one per
// parameter the sweep takes; once fs has parsed them, spec returns the
// job they describe.
func sweepFlags(ch server.Channel, size string) (*flag.FlagSet, func() server.JobSpec) {
	fs := flag.NewFlagSet(ch.JobKind, flag.ContinueOnError)
	benchName := benchFlag(fs)
	machineName := machineFlag(fs)
	spec := server.JobSpec{Kind: ch.JobKind, Size: size}
	for _, p := range ch.Params {
		if p.Applies(server.ModeSwept) {
			p.AddFlag(fs, &spec)
		}
	}
	return fs, func() server.JobSpec {
		spec.Bench, spec.Machine = *benchName, *machineName
		return spec
	}
}

func (a *app) cmdRandomize(args []string) error {
	fs := flag.NewFlagSet("randomize", flag.ContinueOnError)
	benchName := benchFlag(fs)
	machineName := machineFlag(fs)
	n := fs.Int("n", server.DefaultN, "number of randomized setups (max, when -tol is set)")
	seed := fs.Uint64("seed", server.DefaultSeed, "random seed")
	tol := fs.Float64("tol", 0, "adaptive mode: stop when the 95% CI half-width falls below this (e.g. 0.005)")
	coBench := fs.String("co-bench", "", "pin this benchmark as a fixed co-runner on the shared machine (the auditor will object)")
	coRandom := fs.Bool("co-random", false, "randomize the co-runner over the canonical panel, idle included")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	return a.runSpec(server.JobSpec{
		Kind:     server.KindRandomize,
		Size:     a.size.String(),
		Bench:    *benchName,
		Machine:  *machineName,
		N:        *n,
		Seed:     *seed,
		Tol:      *tol,
		CoBench:  *coBench,
		CoRandom: *coRandom,
	})
}

func (a *app) cmdCausal(args []string) error {
	fs := flag.NewFlagSet("causal", flag.ContinueOnError)
	benchName := benchFlag(fs)
	machineName := machineFlag(fs)
	maxShift := fs.Uint64("max-shift", 1024, "largest stack displacement in bytes")
	step := fs.Uint64("step", 128, "displacement step")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	b, err := lookupBench(*benchName)
	if err != nil {
		return err
	}
	r := biaslab.NewRunner(a.size)
	rep, err := biaslab.CausalStudy(a.ctx, r, b, biaslab.DefaultSetup(*machineName), *maxShift, *step)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	t := &report.Table{Title: "counter correlations:", Headers: []string{"counter", "pearson", "spearman"}}
	for _, c := range rep.Correlations {
		t.AddRow(c.Counter, c.Pearson, c.Spearman)
	}
	fmt.Print(t.String())
	return nil
}

func (a *app) cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	benchName := benchFlag(fs)
	machineName := machineFlag(fs)
	env := fs.Uint64("env", 512, "environment size in bytes")
	o3 := fs.Bool("O3", false, "compile at -O3 (default -O2)")
	top := fs.Int("top", 15, "how many functions to show")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	b, err := lookupBench(*benchName)
	if err != nil {
		return err
	}
	setup := biaslab.DefaultSetup(*machineName)
	setup.EnvBytes = *env
	if *o3 {
		setup = setup.WithLevel(biaslab.O3)
	}
	r := biaslab.NewRunner(a.size)
	m, prof, err := r.MeasureProfiled(a.ctx, b, setup)
	if err != nil {
		return err
	}
	fmt.Printf("%s under %s: %d cycles, %d instructions, IPC %.2f\n\n",
		b.Name, setup, m.Cycles, m.Counters.Instructions, m.Counters.IPC())
	fmt.Print(prof.Top(*top).String())
	return nil
}

func (a *app) cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchName := benchFlag(fs)
	machineName := machineFlag(fs)
	aSpec := fs.String("a", "gcc:O2", "config A as personality:level (e.g. gcc:O2)")
	bSpec := fs.String("b", "icc:O2", "config B as personality:level")
	n := fs.Int("n", 12, "number of randomized setups")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	b, err := lookupBench(*benchName)
	if err != nil {
		return err
	}
	cfgA, err := parseConfigSpec(*aSpec)
	if err != nil {
		return err
	}
	cfgB, err := parseConfigSpec(*bSpec)
	if err != nil {
		return err
	}
	r := biaslab.NewRunner(a.size)
	cmp, err := biaslab.CompareConfigs(a.ctx, r, b, biaslab.DefaultSetup(*machineName), cfgA, cfgB, *n, *seed)
	if err != nil {
		return err
	}
	fmt.Println(cmp)
	return nil
}

// parseConfigSpec parses "gcc:O2" / "icc:O3" style toolchain specs.
func parseConfigSpec(spec string) (biaslab.CompilerConfig, error) {
	var cfg biaslab.CompilerConfig
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return cfg, usageErrorf("config spec %q must look like gcc:O2", spec)
	}
	pers, err := compiler.ParsePersonality(parts[0])
	if err != nil {
		return cfg, usageError{err}
	}
	lvl, err := compiler.ParseLevel(parts[1])
	if err != nil {
		return cfg, usageError{err}
	}
	return biaslab.CompilerConfig{Level: lvl, Personality: pers}, nil
}

func (a *app) cmdExperiment(args []string) error {
	if len(args) == 0 {
		return usageErrorf("experiment needs an id (one of %s)", strings.Join(biaslab.ExperimentIDs(), ", "))
	}
	res, raw, err := a.experimentResult(args[0])
	if err != nil {
		return err
	}
	if a.jsonOut {
		return a.render(res, raw)
	}
	e := res.Experiment
	a.emit(&biaslab.ExperimentResult{ID: e.ID, Title: e.Title, Text: e.Text, CSV: e.CSV})
	return nil
}

func (a *app) cmdAll(args []string) error {
	if a.server != "" {
		// Each experiment is its own daemon job; the daemon's shared caches
		// and result store memoize across them.
		for _, id := range biaslab.ExperimentIDs() {
			res, _, err := a.experimentResult(id)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			e := res.Experiment
			a.emit(&biaslab.ExperimentResult{ID: e.ID, Title: e.Title, Text: e.Text, CSV: e.CSV})
			fmt.Println()
		}
		return nil
	}
	lab := biaslab.NewLabCtx(a.ctx, biaslab.LabOptions{Size: a.size}, a.ck)
	for _, id := range biaslab.ExperimentIDs() {
		res, err := lab.ByID(id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		a.emit(res)
		fmt.Println()
	}
	return nil
}

func (a *app) emit(res *biaslab.ExperimentResult) {
	if a.outDir != "" {
		if err := a.save(res); err != nil {
			fmt.Fprintln(os.Stderr, "biaslab: saving artifact:", err)
		}
	}
	if a.csv {
		fmt.Printf("# %s: %s\n%s", res.ID, res.Title, res.CSV)
		return
	}
	fmt.Println(res.Text)
}

// save writes <out>/<id>.txt and <out>/<id>.csv.
func (a *app) save(res *biaslab.ExperimentResult) error {
	if err := os.MkdirAll(a.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(a.outDir, strings.ToLower(res.ID))
	if err := os.WriteFile(base+".txt", []byte(res.Title+"\n\n"+res.Text), 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".csv", []byte(res.CSV), 0o644)
}

func (a *app) cmdList() error {
	cat := server.NewCatalog()
	if a.server != "" {
		remote, err := client.New(a.server).Catalog(a.ctx)
		if err != nil {
			return err
		}
		cat = remote
	}
	if a.jsonOut {
		b, err := json.Marshal(cat)
		if err != nil {
			return err
		}
		os.Stdout.Write(b)
		fmt.Println()
		return nil
	}
	fmt.Println("benchmarks (SPEC CPU2006 C analogues):")
	for _, b := range cat.Benchmarks {
		fmt.Printf("  %-11s %-15s %s\n", b.Name, b.Spec, b.Kernel)
	}
	fmt.Printf("\nmachines: %s\n", strings.Join(cat.Machines, ", "))
	fmt.Println("bias channels:")
	for _, ch := range cat.Channels {
		oracle := ""
		if ch.Oracle {
			oracle = "  (predictable: biaslab predict)"
		}
		fmt.Printf("  %-7s %-13s %s%s\n", ch.Name, ch.Kind, ch.Factor, oracle)
	}
	fmt.Printf("experiments: %s\n", strings.Join(cat.Experiments, ", "))
	fmt.Println("static analysis: vet (cmini lint), predict (bias oracle conflict map)")
	return nil
}
