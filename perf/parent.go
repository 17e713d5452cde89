package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// setupStarts is how many extra child processes a run starts only to time
// set-up; setup_s is the median over them and the measured child. A start
// takes a few milliseconds, so many of them cost little and steady the
// median against the host's scheduling noise.
const setupStarts = 40

// runTimeout bounds one run: its set-up starts and its measured child.
const runTimeout = 170 * time.Second

// childEnv is the complete, fixed environment every child gets. Nothing
// of the caller's environment leaks into a measured process, so the size
// of the caller's environment cannot move a number — the paper's lesson,
// applied to this harness.
func childEnv(nproc int) []string {
	return []string{
		"PATH=/usr/local/bin:/usr/bin:/bin",
		"HOME=/nonexistent",
		"LANG=C",
		"TZ=UTC",
		"GOGC=100",
		"GOMAXPROCS=" + strconv.Itoa(nproc),
	}
}

// workDir is the fixed working directory of every child, cleared before
// each start so no run sees another's files.
const workDir = ".bench_build/work"

// startChild runs one child process to completion and decodes its report.
func startChild(ctx context.Context, self string, nproc int, args []string) (childOutput, time.Time, error) {
	if err := os.RemoveAll(workDir); err != nil {
		return childOutput{}, time.Time{}, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return childOutput{}, time.Time{}, err
	}
	cmd := exec.CommandContext(ctx, self, append([]string{"child"}, args...)...)
	cmd.Dir = workDir
	cmd.Env = childEnv(nproc)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	spawn := time.Now()
	err := cmd.Run()
	_ = os.RemoveAll(workDir) // the next start clears it again
	if err != nil {
		return childOutput{}, spawn, fmt.Errorf("child %v: %w", args, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out childOutput
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return childOutput{}, spawn, fmt.Errorf("child %v: reading its report: %w", args, err)
	}
	return out, spawn, nil
}

// runOnce measures one (workload, seed) in fresh child processes.
func runOnce(ctx context.Context, self string, nproc int, w workload, seed uint64, seconds int, traced bool, traceDir string) (runRecord, error) {
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	rec := runRecord{Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced}
	args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds)}
	var setups []float64
	if !traced {
		for i := 0; i < setupStarts; i++ {
			out, spawn, err := startChild(ctx, self, nproc, append(args, "-mode", "setup"))
			if err != nil {
				return rec, err
			}
			if !out.Correct {
				return rec, fmt.Errorf("set-up failed: %s", strings.Join(out.Errors, "; "))
			}
			setups = append(setups, float64(out.SetupEndNs-spawn.UnixNano())/1e9)
		}
	}
	mode := []string{"-mode", "run"}
	if traced {
		mode = []string{"-mode", "trace", "-trace-dir", traceDir}
	}
	out, spawn, err := startChild(ctx, self, nproc, append(args, mode...))
	if err != nil {
		return rec, err
	}
	rec.Correct, rec.Attempted, rec.Failed = out.Correct, out.Attempted, out.Failed
	rec.ResultsSHA256, rec.Metrics, rec.Notes = out.ResultsSHA256, out.Metrics, out.Notes
	if rec.Metrics == nil {
		rec.Metrics = map[string]value{}
	}
	if rec.Notes == nil {
		rec.Notes = map[string]any{}
	}
	if len(out.Errors) > 0 {
		rec.Notes["errors"] = out.Errors
	}
	if !traced {
		setups = append(setups, float64(out.SetupEndNs-spawn.UnixNano())/1e9)
		rec.Metrics["setup_s"] = value{median(setups), "s"}
	}
	return rec, nil
}

func host(nproc int) hostInfo {
	h := hostInfo{NProc: nproc, GOMAXPROCS: nproc, GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			h.Commit = rev
			if dirty {
				h.Commit += "-dirty"
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return h
}

// printRun prints a run's metrics by name with their units.
func printRun(r runRecord, defs []metricDef) {
	fmt.Printf("%s seed=%d traced=%v correct=%v attempted=%d failed=%d results_sha256=%s\n",
		r.Workload, r.Seed, r.Traced, r.Correct, r.Attempted, r.Failed, r.ResultsSHA256)
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		note := ""
		if d.Name == "op_tail_ms" {
			note = fmt.Sprintf("  (p%v of n=%v)", r.Notes["op_tail_percentile"], r.Notes["op_n"])
		}
		fmt.Printf("  %-32s %14.6g %s%s\n", d.Name, v.Value, v.Unit, note)
	}
	if !r.Traced {
		for _, d := range runNotes {
			if v, ok := r.Notes[d.Name].(float64); ok {
				fmt.Printf("  note %-27s %14.6g %s\n", d.Name, v, d.Unit)
			}
		}
		fmt.Printf("  (op tail: p%v of n=%v)\n", r.Notes["op_tail_percentile"], r.Notes["op_n"])
		if _, ok := r.Notes["hit_tail_ms"]; ok {
			fmt.Printf("  (hit tail: p%v of n=%v)\n", r.Notes["hit_tail_percentile"], r.Notes["hit_n"])
		}
	}
	if bd, ok := r.Notes["breakdown"].(map[string]any); ok {
		fmt.Printf("  %-22s %8s %10s %8s %12s\n", "layer", "calls", "self_s", "share", "p50_us")
		for _, l := range spanLayers {
			if st, ok := bd[l].(map[string]any); ok {
				fmt.Printf("  %-22s %8v %10.4f %8.4f %12.1f\n", l, st["calls"], st["self_s"], st["share"], st["p50_us"])
			}
		}
		fmt.Printf("  op spans' own share of op time: %.4f\n", r.Notes["op_self_share"])
	}
	if errs, ok := r.Notes["errors"].([]string); ok {
		for _, e := range errs {
			fmt.Printf("  error: %s\n", e)
		}
	}
}

// resultLine is the one-line JSON summary a run ends with.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// summaryLine folds one workload's runs into the closing line: medians of
// every metric over the runs.
func summaryLine(runs []runRecord, defs []metricDef) resultLine {
	line := resultLine{Correct: len(runs) > 0, Metrics: map[string]value{}}
	for _, d := range defs {
		var xs []float64
		for _, r := range runs {
			if v, ok := r.Metrics[d.Name]; ok {
				xs = append(xs, v.Value)
			}
		}
		if len(xs) > 0 {
			line.Metrics[d.Name] = value{median(xs), d.Unit}
		}
	}
	for _, r := range runs {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
	}
	return line
}

// runMain is the run subcommand, and with traced the trace subcommand: a
// traced run prints the per-layer metrics instead of the end-to-end ones.
func runMain(args []string, traced bool) int {
	sub := "run"
	if traced {
		sub = "trace"
	}
	fs := newFlagSet(sub)
	name := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Uint64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.Int("seconds", 12, "run length the op count is calibrated to")
	runs := fs.Int("runs", 1, "runs per workload, each in fresh processes")
	out := fs.String("out", "", "result file to append the runs to")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory for <workload>.trace.json span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perf run:", err)
			return 2
		}
		ws = []workload{w}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf run:", err)
		return 1
	}
	absTrace, err := filepath.Abs(*traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf run:", err)
		return 1
	}
	nproc := runtime.NumCPU()
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	ok := true
	var all []runRecord
	for _, w := range ws {
		var recs []runRecord
		for i := 0; i < *runs; i++ {
			r, err := runOnce(context.Background(), self, nproc, w, *seed+uint64(i), *seconds, traced, absTrace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perf run:", err)
				return 1
			}
			printRun(r, defs)
			recs = append(recs, r)
		}
		line := summaryLine(recs, defs)
		ok = ok && line.Correct && line.Failed == 0
		raw, _ := json.Marshal(line)
		fmt.Println(string(raw))
		all = append(all, recs...)
	}
	if *out != "" {
		if err := appendResults(*out, host(nproc), all); err != nil {
			fmt.Fprintln(os.Stderr, "perf run:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}
