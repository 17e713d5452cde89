package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"biaslab/internal/analysis"
	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/core"
	"biaslab/internal/journal"
	"biaslab/internal/linker"
	"biaslab/internal/machine"
	"biaslab/internal/server"
)

// opResult is one completed (or failed) op.
type opResult struct {
	raw     []byte // canonical result bytes: EncodeResult for jobs, plan JSON for plans
	points  int
	latency time.Duration
	hit     bool // service: a resubmission served from the store
	err     error
}

// measureKey identifies one measurement across the untraced and the traced
// pass: the benchmark and the complete rendered setup.
func measureKey(benchName string, s core.Setup) string { return benchName + "|" + s.String() }

type measured struct {
	cycles, checksum uint64
}

// observer collects what every measurement of a run reports through
// Runner.OnMeasure: simulated instructions, and each benchmark's output
// checksum, which must be the same under every setup and every machine.
type observer struct {
	instructions atomic.Uint64
	measurements atomic.Uint64

	mu        sync.Mutex
	checksums map[string]uint64
	mismatch  []string
	// byKey records every measurement when non-nil (the untraced pass of a
	// traced run), so the replay can be held to the same cycles.
	byKey map[string]measured
}

func newObserver(recordAll bool) *observer {
	o := &observer{checksums: map[string]uint64{}}
	if recordAll {
		o.byKey = map[string]measured{}
	}
	return o
}

// runnerFor builds the fresh Runner one op uses, reporting to obs under the
// op's benchmark name: a measurement names its setup but not its program.
func runnerFor(size bench.Size, benchName string, obs *observer) *core.Runner {
	r := core.NewRunner(size)
	if obs != nil {
		r.OnMeasure = func(m *core.Measurement) { obs.observe(benchName, m) }
	}
	return r
}

// observe is the OnMeasure hook: it may run on several goroutines at once.
// An empty benchName counts the measurement without checking its output,
// for Runners shared across benchmarks (the daemon's), which check output
// stability themselves.
func (o *observer) observe(benchName string, m *core.Measurement) {
	o.instructions.Add(m.Counters.Instructions)
	o.measurements.Add(1)
	if benchName == "" {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if want, ok := o.checksums[benchName]; ok && want != m.Checksum {
		o.mismatch = append(o.mismatch, fmt.Sprintf("%s under %s: checksum %d, elsewhere %d", benchName, m.Setup, m.Checksum, want))
	}
	o.checksums[benchName] = m.Checksum
	if o.byKey != nil {
		o.byKey[measureKey(benchName, m.Setup)] = measured{m.Counters.Cycles, m.Checksum}
	}
}

func journalPath(dir string, id int) string {
	return filepath.Join(dir, "op"+strconv.Itoa(id)+".jsonl")
}

// execJob does what one biaslab invocation on a daemon worker does:
// canonicalize and key the spec, run it on a fresh Runner with a journal
// checkpoint, and render the result.
func execJob(ctx context.Context, o op, dir string, obs *observer) ([]byte, int, error) {
	c, err := o.Spec.Canonicalize()
	if err != nil {
		return nil, 0, err
	}
	if _, err := server.Key(c); err != nil {
		return nil, 0, err
	}
	size, err := bench.ParseSize(c.Size)
	if err != nil {
		return nil, 0, err
	}
	jn, err := journal.Open(journalPath(dir, o.ID))
	if err != nil {
		return nil, 0, err
	}
	defer jn.Close()
	total := 0
	res, err := server.Execute(ctx, runnerFor(size, c.Bench, obs), c, jn, func(n int) { total = n })
	if err != nil {
		return nil, 0, err
	}
	raw, err := server.EncodeResult(res)
	if err != nil {
		return nil, 0, err
	}
	if _, err := server.RenderText(res); err != nil {
		return nil, 0, err
	}
	if got := resultPoints(res); got != total {
		return nil, 0, fmt.Errorf("result has %d points, job announced %d", got, total)
	}
	return raw, total, nil
}

// resultPoints counts the points a result carries.
func resultPoints(res *server.Result) int {
	switch {
	case res.Run != nil:
		return 1
	case res.EnvSweep != nil:
		return len(res.EnvSweep.Points)
	case res.LinkSweep != nil:
		return len(res.LinkSweep.Points)
	case res.ChannelSweep != nil:
		return len(res.ChannelSweep.Points)
	case res.TenantSweep != nil:
		return len(res.TenantSweep.Points)
	case res.Randomize != nil:
		return res.Randomize.Estimate.N
	}
	return 0
}

// planGrid is the grid a plan op covers.
func planGrid(kind string) []uint64 {
	switch kind {
	case opPlanEnv:
		return core.DefaultEnvSizes(16)
	case opPlanPad:
		return core.DefaultPadSizes()
	case opPlanBase:
		return core.DefaultTextBases()
	}
	return nil
}

// linkOrderPerms is predict's default cap on enumerated link permutations.
const linkOrderPerms = 24

// execPlan does what one `biaslab predict -json` does: plan on a fresh
// Runner (or, for the link-order map, compile directly as predict does)
// and encode the plan.
func execPlan(o op) ([]byte, int, error) {
	size, err := bench.ParseSize(o.Spec.Size)
	if err != nil {
		return nil, 0, err
	}
	b, ok := bench.ByName(o.Spec.Bench)
	if !ok {
		return nil, 0, fmt.Errorf("unknown benchmark %q", o.Spec.Bench)
	}
	setup := core.DefaultSetup(o.Spec.Machine)
	r := core.NewRunner(size)
	var plan *analysis.EnvPlan
	switch o.Kind {
	case opPlanEnv:
		plan, err = core.PlanEnvSweep(r, b, setup, planGrid(o.Kind))
	case opPlanPad:
		plan, err = core.PlanPadSweep(r, b, setup, planGrid(o.Kind))
	case opPlanBase:
		plan, err = core.PlanBaseSweep(r, b, setup, planGrid(o.Kind))
	case opPlanLink:
		objs, _, err := compiler.Compile(b.Sources(size), compiler.Config{Level: compiler.O2})
		if err != nil {
			return nil, 0, err
		}
		cfg, _ := machine.ConfigByName(o.Spec.Machine)
		lm, err := analysis.BuildLinkOrderMap(objs, cfg, linker.Options{}, linkOrderPerms)
		if err != nil {
			return nil, 0, err
		}
		return encodeLinkMap(lm)
	default:
		return nil, 0, fmt.Errorf("unknown plan kind %q", o.Kind)
	}
	if err != nil {
		return nil, 0, err
	}
	return encodePlan(o.Kind, plan)
}

// encodePlan validates a plan's shape and encodes it.
func encodePlan(kind string, plan *analysis.EnvPlan) ([]byte, int, error) {
	grid := planGrid(kind)
	if len(plan.Sizes) != len(grid) {
		return nil, 0, fmt.Errorf("plan covers %d grid points, want %d", len(plan.Sizes), len(grid))
	}
	prev := 0
	for _, b := range plan.Boundaries {
		if b <= prev || b >= len(grid) {
			return nil, 0, fmt.Errorf("plan boundary %d out of order or range", b)
		}
		prev = b
	}
	raw, err := json.Marshal(plan)
	return raw, len(grid), err
}

func encodeLinkMap(lm *analysis.LinkOrderMap) ([]byte, int, error) {
	if len(lm.Perms) == 0 || lm.Classes < 1 || lm.Classes > len(lm.Perms) {
		return nil, 0, fmt.Errorf("link-order map has %d perms and %d classes", len(lm.Perms), lm.Classes)
	}
	for i, v := range lm.Baseline().Order {
		if v != i {
			return nil, 0, fmt.Errorf("link-order map baseline is %v, not source order", lm.Baseline().Order)
		}
	}
	raw, err := json.Marshal(lm)
	return raw, len(lm.Perms), err
}

// replayCheck re-executes a completed job op over its journal, as a
// resumed CLI run or the cluster's assembly step does: it must measure
// nothing and reproduce the result byte for byte. Adaptive sweeps are
// skipped because their ledger legitimately reports replayed points.
func replayCheck(ctx context.Context, o op, dir string, want []byte) error {
	if o.Kind != opJob || o.Spec.Adaptive {
		return nil
	}
	size, err := bench.ParseSize(o.Spec.Size)
	if err != nil {
		return err
	}
	jn, err := journal.Open(journalPath(dir, o.ID))
	if err != nil {
		return err
	}
	defer jn.Close()
	obs := newObserver(false)
	res, err := server.Execute(ctx, runnerFor(size, o.Spec.Bench, obs), o.Spec, jn, nil)
	if err != nil {
		return fmt.Errorf("replaying op %d: %w", o.ID, err)
	}
	raw, err := server.EncodeResult(res)
	if err != nil {
		return err
	}
	if n := obs.measurements.Load(); n != 0 {
		return fmt.Errorf("replaying op %d measured %d points, want 0", o.ID, n)
	}
	if string(raw) != string(want) {
		return fmt.Errorf("replaying op %d from its journal changed the result", o.ID)
	}
	return nil
}

// runOps runs ops as one closed-loop client: each op is issued when the
// previous one completes. do runs one op. With two clients, an op's
// latency depended on which op ran beside it and on the garbage that one
// made; the parallelism inside an op (core.ForEach) already uses every core.
func runOps(ops []op, do func(op) opResult) ([]opResult, time.Duration) {
	results := make([]opResult, len(ops))
	start := time.Now()
	for i, o := range ops {
		t0 := time.Now()
		results[i] = do(o)
		results[i].latency = time.Since(t0)
	}
	return results, time.Since(start)
}
