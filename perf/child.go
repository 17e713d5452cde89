package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// childOutput is what one measured child process reports to its parent,
// as the last line of its standard output.
type childOutput struct {
	SetupEndNs    int64            `json:"setup_end_ns"`
	Correct       bool             `json:"correct"`
	Attempted     int              `json:"attempted"`
	Failed        int              `json:"failed"`
	Errors        []string         `json:"errors,omitempty"`
	ResultsSHA256 string           `json:"results_sha256,omitempty"`
	Metrics       map[string]value `json:"metrics,omitempty"`
	Notes         map[string]any   `json:"notes,omitempty"`
}

// childConfig is what the parent passes to a child.
type childConfig struct {
	workload string
	seed     uint64
	seconds  float64
	mode     string // "run", "trace" or "setup"
	traceDir string
	// heartbeat overrides the fleet's heartbeat interval (tests only).
	heartbeat time.Duration
}

// opSize is the workload size of a workload's ops: the service serves test
// size, as a daemon under interactive traffic does.
func opSize(w workload) string {
	if w.name == "service" {
		return "test"
	}
	return "small"
}

// runChild runs one measured run in this process. The working directory
// is the run's private scratch space.
func runChild(ctx context.Context, cfg childConfig) childOutput {
	out := childOutput{Metrics: map[string]value{}, Notes: map[string]any{}}
	fail := func(err error) childOutput {
		out.Correct = false
		out.Errors = append(out.Errors, err.Error())
		return out
	}
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return fail(err)
	}
	// A traced run makes an untraced and a traced pass over the op list
	// perf run makes, so it takes about twice as long.
	blocks := w.blocksFor(cfg.seconds)
	ops, err := w.ops(cfg.seed, blocks, opSize(w))
	if err != nil {
		return fail(err)
	}
	out.Notes["ops"] = len(ops)
	out.Notes["blocks"] = blocks

	switch cfg.mode {
	case "setup", "run":
		obs := newObserver(false)
		var f *fleet
		if w.name == "service" {
			if f, err = startFleet(dirFor("run", "data"), cfg.heartbeat, nil, obs); err != nil {
				return fail(err)
			}
		}
		out.SetupEndNs = time.Now().UnixNano()
		if cfg.mode == "setup" {
			if f != nil {
				if err := f.stop(); err != nil {
					return fail(err)
				}
			}
			out.Correct = true
			return out
		}
		p := untracedPass(ctx, ops, f, obs)
		p.check(ctx, w, ops)
		p.report(&out)
		for k, v := range endToEndMetrics(p) {
			out.Metrics[k] = v
		}
		return out
	case "trace":
		return tracedRun(ctx, w, ops, cfg, out)
	}
	return fail(fmt.Errorf("unknown child mode %q", cfg.mode))
}

// dirFor returns (creating) a scratch directory under the working directory.
func dirFor(parts ...string) string {
	dir := filepath.Join(append([]string{"tmp"}, parts...)...)
	// A failure here fails the first file created in dir, with its path.
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

// pass is one timed pass over an op list.
type pass struct {
	results  []opResult
	wall     time.Duration
	alloc    uint64
	rssMB    float64
	obs      *observer
	dir      string
	problems []string
	// clientWalls is each service client's time to finish its stream.
	clientWalls []float64
}

// untracedPass runs the op list the way users run it and measures it,
// reporting every measurement to obs. A service pass stops the fleet f
// once the clients are done.
func untracedPass(ctx context.Context, ops []op, f *fleet, obs *observer) *pass {
	p := &pass{obs: obs, dir: dirFor("run", "journals")}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if f != nil {
		p.results, p.wall, p.clientWalls = runService(ctx, f, ops, nil)
	} else {
		p.results, p.wall = runOps(ops, func(o op) opResult {
			var r opResult
			if o.Kind == opJob {
				r.raw, r.points, r.err = execJob(ctx, o, p.dir, p.obs)
			} else {
				r.raw, r.points, r.err = execPlan(o)
			}
			if r.err != nil {
				r.err = fmt.Errorf("op %d (%s): %w", o.ID, describe(o), r.err)
			}
			return r
		})
	}
	runtime.ReadMemStats(&after)
	p.alloc = after.TotalAlloc - before.TotalAlloc
	p.rssMB = peakRSSMB()
	if f != nil {
		if err := f.stop(); err != nil {
			p.problems = append(p.problems, err.Error())
		}
	}
	return p
}

// check runs the correctness checks that need no timing: outputs stable
// across setups, journals that replay to the same bytes, and for the
// service, every fresh result equal to a local execution.
func (p *pass) check(ctx context.Context, w workload, ops []op) {
	p.obs.mu.Lock()
	p.problems = append(p.problems, p.obs.mismatch...)
	p.obs.mu.Unlock()
	if w.name == "service" {
		p.problems = append(p.problems, verifyLocally(ctx, ops, p.results)...)
		return
	}
	for i, o := range ops {
		if p.results[i].err == nil {
			if err := replayCheck(ctx, o, p.dir, p.results[i].raw); err != nil {
				p.problems = append(p.problems, err.Error())
			}
		}
	}
}

// digest hashes the canonical result bytes of the ops in order.
func digest(results []opResult) string {
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintf(h, "%d\n", len(r.raw))
		h.Write(r.raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// report fills the run's outcome fields.
func (p *pass) report(out *childOutput) {
	out.Attempted += len(p.results)
	for _, r := range p.results {
		if r.err != nil {
			out.Failed++
			out.Errors = append(out.Errors, r.err.Error())
		}
	}
	out.Errors = append(out.Errors, p.problems...)
	out.Correct = out.Failed == 0 && len(p.problems) == 0
	out.ResultsSHA256 = digest(p.results)
	lat, hits := latencies(p.results)
	tv, pct, n := tail(lat)
	out.Notes["op_p50_ms"] = median(lat)
	out.Notes["op_tail_ms"] = tv
	out.Notes["op_tail_percentile"] = pct
	out.Notes["op_n"] = n
	if len(hits) > 0 {
		hv, hpct, hn := tail(hits)
		out.Notes["hit_p50_ms"] = median(hits)
		out.Notes["hit_tail_ms"] = hv
		out.Notes["hit_tail_percentile"] = hpct
		out.Notes["hit_n"] = hn
	}
	if len(p.clientWalls) > 0 {
		out.Notes["client_wall_s"] = p.clientWalls
	}
	out.Notes["instructions"] = p.obs.instructions.Load()
	out.Notes["sim_minstr_per_s"] = float64(p.obs.instructions.Load()) / 1e6 / p.wall.Seconds()
	out.Notes["wall_s"] = p.wall.Seconds()
}

// latencies splits op latencies (ms) into fresh ops and store hits.
func latencies(rs []opResult) (fresh, hits []float64) {
	for _, r := range rs {
		ms := float64(r.latency.Nanoseconds()) / 1e6
		if r.hit {
			hits = append(hits, ms)
		} else {
			fresh = append(fresh, ms)
		}
	}
	return fresh, hits
}

// endToEndMetrics computes every end-to-end metric except setup_s, which
// the parent measures across process starts.
func endToEndMetrics(p *pass) map[string]value {
	points := 0
	for _, r := range p.results {
		points += r.points
	}
	n := float64(len(p.results))
	wall := p.wall.Seconds()
	return map[string]value{
		"ops_per_s":       {n / wall, "ops/s"},
		"points_per_s":    {float64(points) / wall, "points/s"},
		"alloc_mb_per_op": {float64(p.alloc) / 1e6 / n, "MB"},
		"peak_rss_mb":     {p.rssMB, "MB"},
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// tracedRun makes the untraced pass, then the traced pass over the same
// ops, holds the traced results to the untraced ones, and reports the
// per-layer breakdown.
func tracedRun(ctx context.Context, w workload, ops []op, cfg childConfig, out childOutput) childOutput {
	fail := func(err error) childOutput {
		out.Correct = false
		out.Errors = append(out.Errors, err.Error())
		return out
	}
	obs := newObserver(true)
	var f *fleet
	var err error
	if w.name == "service" {
		if f, err = startFleet(dirFor("run", "data"), cfg.heartbeat, nil, obs); err != nil {
			return fail(err)
		}
	}
	u := untracedPass(ctx, ops, f, obs)
	u.check(ctx, w, ops)
	u.report(&out)

	rec := newRecorder()
	t := &pass{obs: newObserver(false), dir: dirFor("trace", "journals")}
	var problems []string
	if w.name == "service" {
		tf, err := startFleet(dirFor("trace", "data"), cfg.heartbeat, rec, t.obs)
		if err != nil {
			return fail(err)
		}
		t.results, t.wall, _ = runService(ctx, tf, ops, rec)
		if err := tf.stop(); err != nil {
			problems = append(problems, err.Error())
		}
		tf.fleetCounters(rec)
	} else {
		rp := newReplayer(rec, t.dir, obs.byKey)
		t.results, t.wall = runOps(ops, func(o op) opResult { return rp.replayOp(ctx, o) })
		rec.set("linker.requests", float64(rp.linkReq))
		rec.set("linker.hits", float64(rp.linkHit))
		rec.add("core.measurements", float64(rp.obs.measurements.Load()))
		problems = append(problems, rp.problems...)
	}
	for i := range ops {
		switch {
		case t.results[i].err != nil:
			problems = append(problems, t.results[i].err.Error())
		case u.results[i].err == nil && string(t.results[i].raw) != string(u.results[i].raw):
			problems = append(problems, fmt.Sprintf("op %d (%s): traced result differs from untraced", i, describe(ops[i])))
		}
	}
	// Outside the timed passes: the structure replay and the allocation
	// probes, on the benchmarks the op list runs.
	if err := replayStructures(ctx, rec, ops); err != nil {
		problems = append(problems, err.Error())
	}
	loadMB, coMB, err := allocProbes(ctx, ops, rec.counter("tenancy.instructions") > 0)
	if err != nil {
		problems = append(problems, err.Error())
	}
	rec.set("loader.alloc_mb_per_call", loadMB)
	rec.set("tenancy.alloc_mb_per_call", coMB)
	out.Attempted += len(t.results)
	if len(problems) > 0 {
		out.Correct = false
		out.Errors = append(out.Errors, problems...)
	}

	rec.set("trace.overhead_pct", 100*(t.wall.Seconds()-u.wall.Seconds())/u.wall.Seconds())
	rec.set("sim_minstr_per_s", float64(obs.instructions.Load())/1e6/u.wall.Seconds())
	lat, _ := latencies(u.results)
	opTail, _, _ := tail(lat)
	rec.set("op_p50_ms", median(lat))
	rec.set("op_tail_ms", opTail)
	bd := rec.breakdown()
	out.Metrics = layerMetrics(rec, bd)
	out.Notes["breakdown"] = breakdownNotes(bd)
	out.Notes["op_self_share"] = opSelfShare(bd)
	out.Notes["traced_wall_s"] = t.wall.Seconds()
	out.Notes["machine.cold_self_s"] = rec.counter("machine.cold_ns") / 1e9
	if n := rec.counter("cluster.first_points"); n > 0 {
		out.Notes["cluster.first_point_ms"] = rec.counter("cluster.first_point_ns") / 1e6 / n
	}
	if n := rec.counter("cluster.beats"); n > 0 {
		out.Notes["cluster.heartbeat_rtt_us"] = rec.counter("cluster.heartbeat_ns") / 1e3 / n
	}
	if cfg.traceDir != "" {
		if err := rec.writeSpans(cfg.traceDir, w.name, cfg.seed); err != nil {
			return fail(err)
		}
	}
	return out
}

// opSelfShare is the op spans' own self time over their total time: what
// the trace fails to attribute to a layer.
func opSelfShare(bd map[string]*layerStat) float64 {
	st := bd["op"]
	if st == nil || st.Total == 0 {
		return 0
	}
	return st.Self.Seconds() / st.Total.Seconds()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// totalSelf sums the span layers' self time.
func totalSelf(bd map[string]*layerStat) float64 {
	var total float64
	for _, l := range spanLayers {
		if st := bd[l]; st != nil {
			total += st.Self.Seconds()
		}
	}
	return total
}

// layerNote is one layer's line of the breakdown.
type layerNote struct {
	Calls int     `json:"calls"`
	SelfS float64 `json:"self_s"`
	Share float64 `json:"share"`
	P50Us float64 `json:"p50_us"`
}

// breakdownNotes is the full per-layer table: every span layer's calls,
// self time, share and median call duration.
func breakdownNotes(bd map[string]*layerStat) map[string]layerNote {
	total := totalSelf(bd)
	out := map[string]layerNote{}
	for _, l := range spanLayers {
		if st := bd[l]; st != nil {
			out[l] = layerNote{st.Calls, st.Self.Seconds(), ratio(st.Self.Seconds(), total), float64(st.P50.Nanoseconds()) / 1e3}
		}
	}
	return out
}

// layerMetrics derives every per-layer metric from the spans and counters.
func layerMetrics(rec *recorder, bd map[string]*layerStat) map[string]value {
	c := rec.counter
	total := totalSelf(bd)
	self := func(l string) float64 {
		if st := bd[l]; st != nil {
			return st.Self.Seconds()
		}
		return 0
	}
	m := map[string]value{}
	for _, l := range spanLayers {
		calls := 0
		if st := bd[l]; st != nil {
			calls = st.Calls
		}
		m[l+".calls"] = value{float64(calls), "count"}
		m[l+".share"] = value{ratio(self(l), total), "fraction"}
	}
	nsPer := func(name, unitsKey string) float64 { return ratio(c(name+".ns"), c(unitsKey)) }
	derived := map[string]float64{
		"linker.reuse_ratio":           ratio(c("linker.hits"), c("linker.requests")),
		"loader.alloc_mb_per_call":     c("loader.alloc_mb_per_call"),
		"machine.minstr_per_s":         ratio(c("machine.instructions")/1e6, self("machine")),
		"machine.cold_calls":           c("machine.cold_calls"),
		"machine.cold_share":           ratio(c("machine.cold_ns")/1e9, self("machine")),
		"cache.l1i.ns_per_access":      nsPer("cache.l1i", "cache.l1i.accesses"),
		"cache.l1d.ns_per_access":      nsPer("cache.l1d", "cache.l1d.accesses"),
		"cache.l2.ns_per_access":       nsPer("cache.l2", "cache.l2.accesses"),
		"tlb.itlb.ns_per_access":       nsPer("tlb.itlb", "tlb.itlb.accesses"),
		"tlb.dtlb.ns_per_access":       nsPer("tlb.dtlb", "tlb.dtlb.accesses"),
		"predictor.ns_per_branch":      nsPer("predictor", "predictor.branches"),
		"tenancy.minstr_per_s":         ratio(c("tenancy.instructions")/1e6, self("tenancy")),
		"tenancy.alloc_mb_per_call":    c("tenancy.alloc_mb_per_call"),
		"analysis.comparator.pairs":    c("analysis.comparator.pairs"),
		"analysis.undecided_ratio":     ratio(c("analysis.comparator.undecided"), c("analysis.comparator.pairs")),
		"core.measurements":            c("core.measurements"),
		"journal.bytes":                c("journal.bytes"),
		"server.hit_ratio":             c("server.hit_ratio"),
		"server.points_measured":       c("server.points_measured"),
		"server.points_replayed":       c("server.points_replayed"),
		"cluster.heartbeats":           c("cluster.heartbeats"),
		"cluster.points_per_heartbeat": ratio(c("cluster.points_delivered"), c("cluster.beats")),
		"cluster.duplicate_ratio":      c("cluster.duplicate_ratio"),
		"cluster.requeues":             c("cluster.requeues"),
		"cluster.steals":               c("cluster.steals"),
		"sim_minstr_per_s":             c("sim_minstr_per_s"),
		"op_p50_ms":                    c("op_p50_ms"),
		"op_tail_ms":                   c("op_tail_ms"),
		"trace.self_s":                 total,
		"trace.overhead_pct":           c("trace.overhead_pct"),
	}
	for _, d := range layerExtras {
		m[d.Name] = value{derived[d.Name], d.Unit}
	}
	return m
}

// childMain is the child subcommand: run once and print the outcome.
func childMain(args []string) int {
	fs := newFlagSet("child")
	cfg := childConfig{}
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 12, "run length")
	fs.StringVar(&cfg.mode, "mode", "run", "run, trace or setup")
	fs.StringVar(&cfg.traceDir, "trace-dir", "", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	out := runChild(context.Background(), cfg)
	raw, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf child:", err)
		return 1
	}
	fmt.Println(string(raw))
	return 0
}
