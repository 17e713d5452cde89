package server

import (
	"context"
	"fmt"

	"biaslab/internal/bench"
	"biaslab/internal/core"
	"biaslab/internal/experiments"
)

// Execute runs the measurement a canonical spec names on r and returns
// the result envelope. It is the single execution path behind both the
// daemon's workers and cmd/biaslab's local mode — the reason a job
// submitted over HTTP resolves to exactly the result the same command
// computes locally.
//
// spec must be canonical (Canonicalize it first); r must have been built
// at spec's workload size. ck (optional) checkpoints grid and experiment
// points for crash-safe resume. onTotal (optional) is told a grid job's
// point count before the first point is measured.
func Execute(ctx context.Context, r *core.Runner, spec JobSpec, ck core.Checkpoint, onTotal func(int)) (*Result, error) {
	g, err := GridOf(spec)
	if err != nil {
		return nil, err
	}
	res := &Result{Kind: spec.Kind, Spec: spec}
	switch {
	case g != nil:
		if onTotal != nil {
			onTotal(g.Len())
		}
		err = g.run(ctx, r, ck, res)
	case spec.Kind == KindRun:
		res.Run, err = executeRun(ctx, r, spec)
	case spec.Kind == KindRandomize:
		res.Randomize, err = executeAdaptiveRandomize(ctx, r, spec)
	case spec.Kind == KindExperiment:
		res.Experiment, err = executeExperiment(ctx, r, spec, ck)
	default:
		return nil, fmt.Errorf("server: unknown job kind %q", spec.Kind)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Grid is a grid job's measurement set with its point type erased: every
// point's checkpoint key, in measurement order, and the means to measure
// one point or the whole set. Every sweep kind and fixed-n randomize is a
// grid job; run, experiment and adaptive-sampling randomize (tol > 0) are
// not. GridOf is the one place a job kind becomes a measurement set, so
// the executor, the shard planner and the shard executor cannot drift
// apart on points or keys.
type Grid struct {
	// Adaptive marks a sweep measured through the oracle-planned driver.
	// Its measurement set depends on runtime verification, so it is not
	// shardable; its point keys are the dense sweep's.
	Adaptive bool

	bench   string
	kind    string
	setups  []core.Setup
	measure func(ctx context.Context, r *core.Runner, i int) (any, error)
	run     func(ctx context.Context, r *core.Runner, ck core.Checkpoint, res *Result) error
}

// Len is the number of points.
func (g *Grid) Len() int { return len(g.setups) }

// Key returns point i's checkpoint key.
func (g *Grid) Key(i int) string { return core.PointKey(g.kind, g.bench, g.setups[i]) }

// Measure measures point i alone and returns its wire point: the value the
// single-node path journals under Key(i).
func (g *Grid) Measure(ctx context.Context, r *core.Runner, i int) (any, error) {
	return g.measure(ctx, r, i)
}

// GridOf maps a canonical spec to its grid, or to nil for a job that is
// not a grid. The grid is a pure function of the spec: the benchmark's
// unit list comes from the spec's workload size.
func GridOf(spec JobSpec) (*Grid, error) {
	ch, sweep := ChannelByKind(spec.Kind)
	if !sweep && (spec.Kind != KindRandomize || spec.Tol > 0) {
		return nil, nil
	}
	setup, b, err := BaseSetup(spec)
	if err != nil {
		return nil, err
	}
	size, err := parseSize(spec.Size)
	if err != nil {
		return nil, err
	}
	if sweep {
		return ch.grid(sweepIn{ch: ch, spec: spec, setup: setup, b: b, size: size}), nil
	}
	// Fixed-n randomize: the co-runner is one more randomized factor when
	// the spec asks for it.
	units := len(b.UnitNames(size))
	var setups []core.Setup
	if spec.CoRandom {
		setups = core.RandomSetupsTenant(setup, spec.N, units, spec.Seed, core.DefaultCoRunners())
	} else {
		setups = core.RandomSetups(setup, spec.N, units, spec.Seed)
	}
	return denseGrid(b, core.RandomGrid(setups), func(res *Result, points []core.RandomPoint) {
		est := core.RandomEstimate(b.Name, spec.Machine, setups, points, spec.Seed, spec.CoRandom)
		res.Randomize = &RandomizeResult{Estimate: *est, Conclusive: est.Conclusive()}
	}), nil
}

// denseGrid erases a core grid's point type: its points are measured by
// the dense driver and finish assembles the result payload from them.
func denseGrid[P any](b *bench.Benchmark, g core.Grid[P], finish func(res *Result, points []P)) *Grid {
	return &Grid{
		bench:  b.Name,
		kind:   g.Kind,
		setups: g.Setups,
		measure: func(ctx context.Context, r *core.Runner, i int) (any, error) {
			return g.Measure(ctx, r, b, i)
		},
		run: func(ctx context.Context, r *core.Runner, ck core.Checkpoint, res *Result) error {
			points, err := core.Sweep(ctx, r, b, g, ck)
			if err != nil {
				return err
			}
			finish(res, points)
			return nil
		},
	}
}

// sweepGrid is denseGrid for a channel's sweep: finish also receives the
// bias report under the channel's factor and, for an adaptive sweep (only
// a planned channel takes the switch), the ledger of the planned driver
// measuring g against the channel's plan over values.
func sweepGrid[P core.SweepPoint](in sweepIn, g core.Grid[P], values []uint64, finish func(res *Result, points []P, adaptive *core.AdaptiveSweepStats, rep core.BiasReport)) *Grid {
	done := func(res *Result, points []P, adaptive *core.AdaptiveSweepStats) {
		finish(res, points, adaptive, core.NewBiasReport(in.b.Name, in.spec.Machine, in.ch.Factor, core.Speedups(points)))
	}
	grid := denseGrid(in.b, g, func(res *Result, points []P) { done(res, points, nil) })
	if in.spec.Adaptive {
		grid.Adaptive = true
		grid.run = func(ctx context.Context, r *core.Runner, ck core.Checkpoint, res *Result) error {
			p, err := in.ch.Plan(r, in.b, in.setup, values)
			if err != nil {
				return err
			}
			points, stats, err := core.SweepPlanned(ctx, r, in.b, g, p, ck)
			if err != nil {
				return err
			}
			done(res, points, &stats)
			return nil
		}
	}
	return grid
}

// BaseSetup builds the setup a canonical spec starts from and resolves its
// benchmark. Exported for the auditor, whose oracle-backed rules must plan
// over exactly the setups the single-node path measures.
func BaseSetup(spec JobSpec) (core.Setup, *bench.Benchmark, error) {
	b, ok := bench.ByName(spec.Bench)
	if !ok {
		return core.Setup{}, nil, fmt.Errorf("server: unknown benchmark %q", spec.Bench)
	}
	cfg, err := spec.compilerConfig()
	if err != nil {
		return core.Setup{}, nil, err
	}
	setup := core.DefaultSetup(spec.Machine)
	setup.Compiler = cfg
	// The co-run parameters ride on the setup. For kinds that vary the
	// co-runner (sweep-tenant, randomize with co_random) CoBench is empty
	// here: the setup carries the fixed level and quantum while the sweep
	// or the draw fills in each point's identity.
	setup.CoRunner = core.CoRunner{Bench: spec.CoBench, Level: spec.CoLevel, Quantum: spec.Quantum}
	return setup, b, nil
}

func executeRun(ctx context.Context, r *core.Runner, spec JobSpec) (*RunResult, error) {
	setup, b, err := BaseSetup(spec)
	if err != nil {
		return nil, err
	}
	setup.EnvBytes = spec.EnvBytes
	m, err := r.Measure(ctx, b, setup)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Benchmark: b.Name,
		Size:      spec.Size,
		Setup:     setup.String(),
		Cycles:    m.Cycles,
		Checksum:  m.Checksum,
		Counters:  m.Counters,
	}, nil
}

// executeAdaptiveRandomize samples randomized setups until the interval is
// tight enough. Its setup count depends on interim intervals, so it is not
// a grid and is not checkpointed: a resumed run must re-decide when to
// stop.
func executeAdaptiveRandomize(ctx context.Context, r *core.Runner, spec JobSpec) (*RandomizeResult, error) {
	setup, b, err := BaseSetup(spec)
	if err != nil {
		return nil, err
	}
	est, err := core.EstimateSpeedupAdaptive(ctx, r, b, setup, spec.Tol, 4, spec.N, spec.Seed)
	if err != nil {
		return nil, err
	}
	return &RandomizeResult{Estimate: *est, Conclusive: est.Conclusive()}, nil
}

func executeExperiment(ctx context.Context, r *core.Runner, spec JobSpec, ck core.Checkpoint) (*ExperimentResult, error) {
	size, err := parseSize(spec.Size)
	if err != nil {
		return nil, err
	}
	lab := experiments.NewLabCtx(ctx, experiments.Options{Size: size}, ck)
	// Swap in the shared Runner so experiment jobs reuse the daemon's
	// compile/link caches and feed its measurement counters.
	lab.Runner = r
	out, err := lab.ByID(spec.Experiment)
	if err != nil {
		return nil, err
	}
	return &ExperimentResult{ID: out.ID, Title: out.Title, Text: out.Text, CSV: out.CSV}, nil
}
