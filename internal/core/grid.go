package core

import (
	"context"
	"fmt"

	"biaslab/internal/bench"
	"biaslab/internal/compiler"
)

// Grid is one measurement set: every point of a channel sweep or of a
// randomized-setup estimate, in sweep order. A grid is three things — the
// checkpoint namespace its points are journalled under, the fully applied
// Setup of each point, and how a measured O2/O3 cycle pair becomes the
// channel's wire point — so a channel is defined by its grid constructor
// alone. Sweep measures any grid densely and SweepPlanned measures it
// guided by an oracle plan; both record point i under
// PointKey(Kind, bench, Setups[i]), so the two modes share a journal.
type Grid[P any] struct {
	// Kind is the checkpoint namespace: "env", "link", "pad", "base",
	// "tenant" or "rand".
	Kind string
	// Setups holds each point's complete setup, in sweep order.
	Setups []Setup
	// Point builds point i's wire value from its measured O2 (base) and O3
	// (opt) cycle counts.
	Point func(i int, base, opt uint64) P
}

// SweepPoint is a wire point that carries the cycle pair it was built
// from. Replayed points of such grids are rebuilt through Grid.Point, and
// only such grids can be measured by SweepPlanned, which verifies plateaus
// by comparing cycle pairs.
type SweepPoint interface {
	Cycles() (base, opt uint64)
}

// applyEach returns one copy of setup per value, with set applied.
func applyEach[V any](setup Setup, values []V, set func(*Setup, V)) []Setup {
	setups := make([]Setup, len(values))
	for i, v := range values {
		setups[i] = setup
		set(&setups[i], v)
	}
	return setups
}

// speedup is the O3-over-O2 speedup of a cycle pair, computed exactly as
// Runner.Speedup computes it.
func speedup(base, opt uint64) float64 { return float64(base) / float64(opt) }

// Speedups extracts the speedup of every point, for bias reports.
func Speedups[P SweepPoint](points []P) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = speedup(p.Cycles())
	}
	return out
}

// sweepKey is the checkpoint key of one sweep point: the sweep kind, the
// benchmark, and the *complete* rendered setup, so that points recorded
// under any different setup (machine, compiler, order, padding, shift) can
// never be replayed for this one.
func sweepKey(kind string, benchName string, s Setup) string {
	return kind + "/" + benchName + "/" + s.String()
}

// PointKey returns the checkpoint-journal key of one grid point — the key
// Sweep and SweepPlanned record under. Kinds in use: "env", "link", "pad",
// "base", "tenant" (channel sweeps) and "rand" (randomized-setup
// estimates). Exported so a cluster worker measuring a shard of a grid
// produces records in exactly the single-node journal namespace; the
// byte-identical merge contract depends on it.
func PointKey(kind, benchName string, s Setup) string {
	return sweepKey(kind, benchName, s)
}

// Key returns point i's checkpoint key.
func (g Grid[P]) Key(benchName string, i int) string {
	return sweepKey(g.Kind, benchName, g.Setups[i])
}

// Measure measures point i alone: b's O3-over-O2 comparison at the
// point's setup. It is the dense driver's unit of work and the shard
// executor's.
func (g Grid[P]) Measure(ctx context.Context, r *Runner, b *bench.Benchmark, i int) (P, error) {
	_, mb, mo, err := r.Speedup(ctx, b, g.Setups[i], compiler.O2, compiler.O3)
	if err != nil {
		var zero P
		return zero, err
	}
	return g.Point(i, mb.Cycles, mo.Cycles), nil
}

// replay looks point i up in ck. A replayed point that carries its cycle
// pair is rebuilt through g.Point, so fields the grid derives rather than
// measures come from the grid, never from the journal: a random link
// permutation can coincide with the default order and share its key while
// carrying its own label, and the rebuilt point never aliases journal-owned
// slices.
func (g Grid[P]) replay(ck Checkpoint, benchName string, i int) (P, bool, error) {
	var p P
	ok, err := ck.Lookup(g.Key(benchName, i), &p)
	if ok && err == nil {
		if sp, carries := any(p).(SweepPoint); carries {
			base, opt := sp.Cycles()
			p = g.Point(i, base, opt)
		}
	}
	return p, ok, err
}

// Sweep measures every point of g for b, with journal-based
// checkpoint/resume: every completed point is recorded in ck before the
// sweep moves on, and points already recorded (a resumed run) are replayed
// without re-measurement — bit-identical, because measurements are
// deterministic. A nil ck disables checkpointing. Two points that share a
// key (coincident random draws) are both measured or both replayed.
//
// On failure it returns the completed points (in sweep order, with the
// failed and unreached points explicitly absent) alongside an error that
// says how much is missing. Callers must treat such partial results as
// partial: they are never silently aggregated by any code in this package.
func Sweep[P any](ctx context.Context, r *Runner, b *bench.Benchmark, g Grid[P], ck Checkpoint) ([]P, error) {
	n := len(g.Setups)
	points := make([]P, n)
	done := make([]bool, n)
	pending := make([]int, 0, n)
	for i := range g.Setups {
		if ck != nil {
			p, ok, err := g.replay(ck, b.Name, i)
			if err != nil {
				return nil, err
			}
			if ok {
				points[i], done[i] = p, true
				continue
			}
		}
		pending = append(pending, i)
	}
	err := ForEach(ctx, len(pending), 0, func(ctx context.Context, pi int) error {
		i := pending[pi]
		p, err := g.Measure(ctx, r, b, i)
		if err != nil {
			return err
		}
		if ck != nil {
			if err := ck.Record(g.Key(b.Name, i), p); err != nil {
				return err
			}
		}
		points[i], done[i] = p, true
		return nil
	})
	if err != nil {
		return g.incomplete(b.Name, points, done, err)
	}
	return points, nil
}

// incomplete compacts the completed points of an interrupted sweep,
// preserving sweep order, and wraps err with how much is missing. The gaps
// are *explicit*: the result's length tells the caller exactly how much is
// missing.
func (g Grid[P]) incomplete(benchName string, points []P, done []bool, err error) ([]P, error) {
	out := make([]P, 0, len(points))
	for i, ok := range done {
		if ok {
			out = append(out, points[i])
		}
	}
	return out, fmt.Errorf("core: %s sweep of %s incomplete (%d of %d points measured): %w",
		g.Kind, benchName, len(out), len(points), err)
}
