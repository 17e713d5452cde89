package core

import (
	"context"
	"fmt"

	"biaslab/internal/analysis"
	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/machine"
)

// machineConfig resolves a machine name to its configuration the same way
// acquireMachine does: registered custom configs first, then the built-in
// catalogue.
func (r *Runner) machineConfig(name string) (machine.Config, error) {
	r.mu.Lock()
	cfg, ok := r.custom[name]
	r.mu.Unlock()
	if ok {
		return cfg, nil
	}
	cfg, ok = machine.ConfigByName(name)
	if !ok {
		return machine.Config{}, fmt.Errorf("core: unknown machine %q", name)
	}
	return cfg, nil
}

// PlanEnvSweep asks the bias oracle where an environment sweep of b under
// setup can transition: it builds one conflict map per optimization level —
// a sweep point measures both the O2 and the O3 binary, and their stack
// placements differ — over the exact executables the sweep will run, and
// merges them into a single plan. The plan is the same struct `biaslab
// predict -json` emits.
func PlanEnvSweep(r *Runner, b *bench.Benchmark, setup Setup, sizes []uint64) (*analysis.EnvPlan, error) {
	cfg, err := r.machineConfig(setup.Machine)
	if err != nil {
		return nil, err
	}
	maps := make([]*analysis.ConflictMap, 0, 2)
	for _, lvl := range []compiler.Level{compiler.O2, compiler.O3} {
		s := setup.WithLevel(lvl)
		exe, err := r.Executable(b, s)
		if err != nil {
			return nil, err
		}
		prog, err := r.program(b, s.Compiler)
		if err != nil {
			return nil, err
		}
		o, err := analysis.NewOracle(exe, prog, cfg, []string{b.Name}, s.StackShift)
		if err != nil {
			return nil, fmt.Errorf("core: planning env sweep of %s: %w", b.Name, err)
		}
		maps = append(maps, o.ConflictMap(b.Name, setup.Machine, sizes))
	}
	return analysis.NewEnvPlan(b.Name, setup.Machine, sizes, maps...)
}

// AdaptiveSweepStats reports what an adaptive sweep actually did — the
// honesty ledger that lets a caller (and the experiment log) distinguish
// "measured everything" from "measured the boundaries and verified the
// plateaus".
type AdaptiveSweepStats struct {
	// GridPoints is the full grid size; Measured + Interpolated + Replayed
	// equals GridPoints on success.
	GridPoints int `json:"grid_points"`
	// Measured counts points obtained by actually running the simulator in
	// this call (boundary points, guard bands, spot checks, and any dense
	// fallback).
	Measured int `json:"measured"`
	// Interpolated counts points filled in from a verified plateau without
	// a run.
	Interpolated int `json:"interpolated"`
	// Replayed counts points restored from the checkpoint journal.
	Replayed int `json:"replayed"`
	// Boundaries is the number of transition boundaries the oracle predicted.
	Boundaries int `json:"boundaries"`
	// Fallbacks counts plateaus whose verification points disagreed —
	// mispredictions — and were therefore re-measured densely.
	Fallbacks int `json:"fallbacks"`
	// PlanExact records whether the oracle claimed exactness for the plan.
	PlanExact bool `json:"plan_exact"`
}

// SweepPlanned measures g for b guided by an oracle plan over the same
// grid: it measures the predicted transition boundaries, a guard band
// before each, and one interior spot check per plateau, then fills in
// plateau interiors by interpolation. Every plateau is verified
// empirically — all held points, probes and replayed checkpoint points
// alike, must agree exactly on both cycle counts — and a plateau that fails
// verification is re-measured densely, so a wrong oracle costs time, never
// correctness of the points it got to verify. When the oracle's predictions
// hold, the returned points are byte-identical to Sweep's over the same
// grid.
//
// Checkpoint keys are identical to Sweep's, so adaptive and dense runs
// share a journal: a resumed run replays whichever points either mode
// recorded. The partial-result contract is Sweep's.
func SweepPlanned[P SweepPoint](ctx context.Context, r *Runner, b *bench.Benchmark, g Grid[P], plan *analysis.EnvPlan, ck Checkpoint) ([]P, AdaptiveSweepStats, error) {
	n := len(g.Setups)
	stats := AdaptiveSweepStats{
		GridPoints: n,
		Boundaries: len(plan.Boundaries),
		PlanExact:  plan.Exact,
	}
	if len(plan.Sizes) != n {
		return nil, stats, fmt.Errorf("core: %s plan grid has %d sizes, sweep grid %d", g.Kind, len(plan.Sizes), n)
	}
	prev := 0
	for _, bi := range plan.Boundaries {
		if bi <= prev || bi >= n {
			return nil, stats, fmt.Errorf("core: %s plan boundaries %v not strictly increasing within (0,%d)", g.Kind, plan.Boundaries, n)
		}
		prev = bi
	}

	points := make([]P, n)
	done := make([]bool, n)
	for i := 0; i < n; i++ {
		if ck == nil {
			break
		}
		p, ok, err := g.replay(ck, b.Name, i)
		if err != nil {
			return nil, stats, err
		}
		if ok {
			points[i], done[i] = p, true
			stats.Replayed++
		}
	}

	// measurePts measures the given grid indices — both optimization levels
	// per point, batched through MeasureBatch — and records each completed
	// point before moving on, preserving the dense sweep's partial-result
	// contract at chunk granularity.
	measurePts := func(idxs []int) error {
		const pointsPerChunk = measureBatchSize / 2
		for start := 0; start < len(idxs); start += pointsPerChunk {
			end := start + pointsPerChunk
			if end > len(idxs) {
				end = len(idxs)
			}
			chunk := idxs[start:end]
			setups := make([]Setup, 0, 2*len(chunk))
			for _, i := range chunk {
				s := g.Setups[i]
				setups = append(setups, s.WithLevel(compiler.O2), s.WithLevel(compiler.O3))
			}
			ms, err := r.MeasureBatch(ctx, b, setups)
			if err != nil {
				return err
			}
			for k, i := range chunk {
				mb, mo := ms[2*k], ms[2*k+1]
				p := g.Point(i, mb.Cycles, mo.Cycles)
				if ck != nil {
					if err := ck.Record(g.Key(b.Name, i), p); err != nil {
						return err
					}
				}
				points[i], done[i] = p, true
				stats.Measured++
			}
		}
		return nil
	}
	fail := func(err error) ([]P, AdaptiveSweepStats, error) {
		completed, err := g.incomplete(b.Name, points, done, err)
		return completed, stats, err
	}

	// Plateaus: [start of grid or a boundary, next boundary). Within each,
	// the oracle predicts constant cycles. The probe set per plateau is its
	// first point (the boundary itself), its last point (the guard band just
	// before the next boundary), and one interior spot check.
	starts := append([]int{0}, plan.Boundaries...)
	probe := make([]int, 0, 3*len(starts))
	want := make([]bool, n)
	mark := func(i int) {
		if !want[i] && !done[i] {
			want[i] = true
			probe = append(probe, i)
		}
	}
	plateau := func(k int) (lo, hi int) {
		lo = starts[k]
		hi = n - 1
		if k+1 < len(starts) {
			hi = starts[k+1] - 1
		}
		return lo, hi
	}
	for k := range starts {
		lo, hi := plateau(k)
		mark(lo)
		mark(hi)
		mark((lo + hi) / 2)
	}
	if err := measurePts(probe); err != nil {
		return fail(err)
	}

	// Verify each plateau against every point of it we hold — probes plus
	// any replayed checkpoint points — and either interpolate the interior
	// or fall back to measuring it densely.
	for k := range starts {
		lo, hi := plateau(k)
		agree := true
		repBase, repOpt := points[lo].Cycles()
		for i := lo; i <= hi; i++ {
			cb, co := points[i].Cycles()
			if done[i] && (cb != repBase || co != repOpt) {
				agree = false
				break
			}
		}
		if !agree {
			stats.Fallbacks++
			dense := make([]int, 0, hi-lo+1)
			for i := lo; i <= hi; i++ {
				if !done[i] {
					dense = append(dense, i)
				}
			}
			if err := measurePts(dense); err != nil {
				return fail(err)
			}
			continue
		}
		for i := lo; i <= hi; i++ {
			if done[i] {
				continue
			}
			p := g.Point(i, repBase, repOpt)
			if ck != nil {
				if err := ck.Record(g.Key(b.Name, i), p); err != nil {
					return fail(err)
				}
			}
			points[i], done[i] = p, true
			stats.Interpolated++
		}
	}
	return points, stats, nil
}
