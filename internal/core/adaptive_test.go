package core

import (
	"context"
	"reflect"
	"testing"

	"biaslab/internal/analysis"
	"biaslab/internal/bench"
	"biaslab/internal/machine"
)

// adaptiveTestGrid is a coarse env grid that keeps these tests fast while
// still crossing at least one real transition for libquantum on core2.
func adaptiveTestGrid() []uint64 { return DefaultEnvSizes(256) }

// pressureFreeConfig is an oracle-exact machine: large associativity, no
// store buffer, no prefetch, so misses are purely compulsory and the
// oracle's predicted plateaus are exactly cycle-flat (the same regime
// analysis's cross-validation test proves). This is where adaptive sweeps
// realize their savings; on the built-in machines the unmodelled mechanisms
// break flatness and the spot checks force dense fallback instead.
func pressureFreeConfig() machine.Config {
	return machine.Config{
		Name:        "pressure-free",
		IssueWidth:  4,
		L1I:         machine.CacheConfig{Name: "L1I", SizeKB: 32, LineSize: 64, Ways: 8},
		L1D:         machine.CacheConfig{Name: "L1D", SizeKB: 64, LineSize: 64, Ways: 8},
		L2:          machine.CacheConfig{Name: "L2", SizeKB: 2048, LineSize: 64, Ways: 16},
		ITLBEntries: 128, DTLBEntries: 256, PageSize: 4096,
		Predictor: machine.PredictorConfig{HistoryBits: 12, BTBEntries: 2048, RASDepth: 16},
		Penalties: machine.Penalties{
			L1Miss: 10, L2Miss: 200, ITLBMiss: 20, DTLBMiss: 30,
			Mispredict: 10, BTBRedirect: 4, TakenBranch: 1, MisalignedEntry: 2,
			SplitAccess: 5, Alias4K: 0, Mul: 3, Div: 20, Sys: 100,
		},
		StoreBufferDepth: 0, AliasWindow: 0, FetchBlockBytes: 16,
	}
}

// TestAdaptiveSweepMatchesDense is the headline guarantee in the regime the
// oracle models exactly: over the same grid, the oracle-guided sweep and
// the dense sweep return byte-identical points — same cycles, same float
// speedups — while the adaptive one measures a small fraction of them with
// zero fallbacks.
func TestAdaptiveSweepMatchesDense(t *testing.T) {
	b, _ := bench.ByName("libquantum")
	cfg := pressureFreeConfig()
	sizes := DefaultEnvSizes(32)
	ctx := context.Background()

	newRunner := func() *Runner {
		r := NewRunner(bench.SizeTest)
		if err := r.RegisterMachine(cfg.Name, cfg); err != nil {
			t.Fatal(err)
		}
		return r
	}
	setup := DefaultSetup(cfg.Name)

	dense, err := EnvSweep(ctx, newRunner(), b, setup, sizes)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, stats, err := EnvSweepAdaptive(ctx, newRunner(), b, setup, sizes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dense, adaptive) {
		for i := range dense {
			if dense[i] != adaptive[i] {
				t.Errorf("point %d (env %d): dense %+v vs adaptive %+v", i, sizes[i], dense[i], adaptive[i])
			}
		}
		t.Fatalf("adaptive sweep diverged from dense sweep")
	}
	if stats.Measured+stats.Interpolated+stats.Replayed != stats.GridPoints {
		t.Fatalf("stats don't account for the grid: %+v", stats)
	}
	if stats.Replayed != 0 {
		t.Fatalf("no checkpoint was given, yet %d points were replayed", stats.Replayed)
	}
	if !stats.PlanExact || stats.Fallbacks != 0 {
		t.Fatalf("the pressure-free config should plan exactly and verify cleanly: %+v", stats)
	}
	if stats.Measured*5 > stats.GridPoints {
		t.Fatalf("expected ≥5× fewer measured points, got %d of %d: %+v", stats.Measured, stats.GridPoints, stats)
	}
	t.Logf("adaptive stats: %+v", stats)
}

// TestAdaptiveSweepRealMachineStillIdentical runs the adaptive sweep on a
// built-in machine, where unmodelled mechanisms (store aliasing, set
// pressure) make the oracle's plateaus only approximately flat. The
// verification points must catch every violated plateau and fall back to
// dense measurement, so the output stays byte-identical — the sweep merely
// saves less.
func TestAdaptiveSweepRealMachineStillIdentical(t *testing.T) {
	b, _ := bench.ByName("libquantum")
	setup := DefaultSetup("core2")
	sizes := adaptiveTestGrid()
	ctx := context.Background()

	dense, err := EnvSweep(ctx, NewRunner(bench.SizeTest), b, setup, sizes)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, stats, err := EnvSweepAdaptive(ctx, NewRunner(bench.SizeTest), b, setup, sizes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dense, adaptive) {
		t.Fatalf("adaptive sweep diverged from dense sweep on core2")
	}
	if stats.Measured+stats.Interpolated+stats.Replayed != stats.GridPoints {
		t.Fatalf("stats don't account for the grid: %+v", stats)
	}
	t.Logf("core2 adaptive stats (degraded mode): %+v", stats)
}

// TestAdaptiveSweepMispredictionFallsBack forces a deliberately wrong plan
// — one that hides a real transition inside a predicted plateau — and
// demands that the verification points catch it, the plateau is re-measured
// densely, and the final points are still byte-identical to the dense
// sweep. A wrong oracle must cost time, never correctness.
func TestAdaptiveSweepMispredictionFallsBack(t *testing.T) {
	b, _ := bench.ByName("libquantum")
	setup := DefaultSetup("core2")
	sizes := adaptiveTestGrid()
	ctx := context.Background()

	dense, err := EnvSweep(ctx, NewRunner(bench.SizeTest), b, setup, sizes)
	if err != nil {
		t.Fatal(err)
	}
	// Find a real measured transition, then build a plan that claims the
	// plateau [0..t] is flat — its right endpoint sits ON the transition, so
	// the plateau's own verification points must disagree.
	trans := -1
	for i := 1; i < len(dense); i++ {
		if dense[i].CyclesBase != dense[i-1].CyclesBase || dense[i].CyclesOpt != dense[i-1].CyclesOpt {
			trans = i
			break
		}
	}
	if trans < 0 {
		t.Skip("no measured transition on this grid; misprediction cannot be staged")
	}
	if trans+1 >= len(sizes) {
		t.Fatalf("transition at final grid point %d; widen the grid", trans)
	}
	wrong := &analysis.EnvPlan{
		Bench:      b.Name,
		Machine:    setup.Machine,
		Sizes:      sizes,
		Boundaries: []int{trans + 1},
		Exact:      false,
		Reasons:    []string{"deliberately mispredicted (test)"},
	}
	adaptive, stats, err := envSweepPlanned(ctx, NewRunner(bench.SizeTest), b, setup, sizes, wrong, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fallbacks == 0 {
		t.Fatalf("misprediction went undetected: %+v", stats)
	}
	if !reflect.DeepEqual(dense, adaptive) {
		t.Fatalf("fallback did not restore dense results")
	}
}

// TestAdaptiveSweepSharesDenseJournal: points a dense sweep checkpointed
// are replayed verbatim by an adaptive resume — the two modes write and
// read the same keys.
func TestAdaptiveSweepSharesDenseJournal(t *testing.T) {
	b, _ := bench.ByName("libquantum")
	setup := DefaultSetup("core2")
	sizes := adaptiveTestGrid()
	ctx := context.Background()
	ck := newMemCheckpoint()

	dense, err := EnvSweepCheckpointed(ctx, NewRunner(bench.SizeTest), b, setup, sizes, ck)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, stats, err := EnvSweepAdaptive(ctx, NewRunner(bench.SizeTest), b, setup, sizes, ck)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != len(sizes) || stats.Measured != 0 {
		t.Fatalf("resume over a complete dense journal should replay everything: %+v", stats)
	}
	if !reflect.DeepEqual(dense, adaptive) {
		t.Fatalf("replayed points diverge from the dense sweep's")
	}
}
