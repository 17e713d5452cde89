package analysis_test

import (
	"context"
	"testing"

	"biaslab/internal/analysis"
	"biaslab/internal/bench"
	"biaslab/internal/core"
	"biaslab/internal/machine"
)

// Cross-validation machine configs. Both are deliberately pressure-free for
// the small-global benchmarks under test (large associativity, no store
// buffer, no prefetch), so the oracle's compulsory-miss model is exact and
// every predicted transition must appear in the measured sweep — and vice
// versa. The two differ in cache geometry, page size and penalties so the
// oracle is validated against two genuinely different set mappings.
func xvalConfigA() machine.Config {
	return machine.Config{
		Name:        "xval-a",
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

func xvalConfigB() machine.Config {
	return machine.Config{
		Name:        "xval-b",
		IssueWidth:  2,
		L1I:         machine.CacheConfig{Name: "L1I", SizeKB: 16, LineSize: 64, Ways: 4},
		L1D:         machine.CacheConfig{Name: "L1D", SizeKB: 32, LineSize: 64, Ways: 8},
		L2:          machine.CacheConfig{Name: "L2", SizeKB: 1024, LineSize: 128, Ways: 16},
		ITLBEntries: 64, DTLBEntries: 64, PageSize: 8192,
		Predictor: machine.PredictorConfig{HistoryBits: 12, BTBEntries: 512, RASDepth: 8},
		Penalties: machine.Penalties{
			L1Miss: 18, L2Miss: 350, ITLBMiss: 55, DTLBMiss: 55,
			Mispredict: 20, BTBRedirect: 8, TakenBranch: 1, MisalignedEntry: 2,
			SplitAccess: 6, Alias4K: 0, Mul: 4, Div: 40, Sys: 150,
		},
		StoreBufferDepth: 0, AliasWindow: 0, FetchBlockBytes: 32,
	}
}

// xvalGrid is the shared env-size grid: step-8 over representable synthetic
// sizes, spanning ~1.5 KiB of stack displacement — a couple dozen line
// transitions and (depending on where the stack top lands) a page crossing.
func xvalGrid() []uint64 {
	var sizes []uint64
	for e := uint64(24); e <= 1560; e += 8 {
		sizes = append(sizes, e)
	}
	return sizes
}

// TestOracleCrossValidation is the acceptance gate of the bias oracle: for
// two benchmarks × two machine configs, every statically predicted
// conflict-transition env size must lie within one cache line of a measured
// cycle-count discontinuity, and every measured discontinuity must have a
// predicted transition. With exact footprints and no pressure the
// correspondence is in fact required to be exact — the one-line tolerance of
// the acceptance criterion is slack the test does not need.
func TestOracleCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps ~800 simulator runs")
	}
	ctx := context.Background()
	sizes := xvalGrid()

	for _, benchName := range []string{"hmmer", "libquantum"} {
		b, ok := bench.ByName(benchName)
		if !ok {
			t.Fatalf("benchmark %s not registered", benchName)
		}
		for _, cfg := range []machine.Config{xvalConfigA(), xvalConfigB()} {
			t.Run(benchName+"/"+cfg.Name, func(t *testing.T) {
				r := core.NewRunner(bench.SizeTest)
				if err := r.RegisterMachine(cfg.Name, cfg); err != nil {
					t.Fatal(err)
				}
				setup := core.DefaultSetup(cfg.Name)

				exe, err := r.Executable(b, setup)
				if err != nil {
					t.Fatal(err)
				}
				o, err := analysis.NewOracle(exe, nil, cfg, []string{b.Name}, 0)
				if err != nil {
					t.Fatal(err)
				}
				if o.Foot.Approx {
					t.Fatalf("footprint unexpectedly approximate: %v", o.Foot.ApproxReasons)
				}
				cm := o.ConflictMap(b.Name, cfg.Name, sizes)
				if cm.PressureAnywhere {
					t.Fatalf("xval config %s was meant to be pressure-free", cfg.Name)
				}

				// Measured sweep: raw cycles at each env size, single level,
				// on every core.
				cycles := make([]uint64, len(sizes))
				if err := core.ForEach(ctx, len(sizes), 0, func(ctx context.Context, i int) error {
					s := setup
					s.EnvBytes = sizes[i]
					m, err := r.Measure(ctx, b, s)
					if err != nil {
						return err
					}
					cycles[i] = m.Cycles
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				var measured []uint64
				for i := 1; i < len(sizes); i++ {
					if cycles[i] != cycles[i-1] {
						measured = append(measured, sizes[i])
					}
				}
				var predicted []uint64
				for _, tr := range cm.Transitions {
					predicted = append(predicted, tr.EnvBytes)
				}

				t.Logf("%s/%s: %d predicted transitions, %d measured discontinuities",
					benchName, cfg.Name, len(predicted), len(measured))
				if len(measured) == 0 {
					t.Fatalf("sweep shows no discontinuities at all — grid too narrow to validate")
				}

				tol := uint64(cfg.L1D.Geometry().LineSize)
				for _, p := range predicted {
					if !within(p, measured, tol) {
						t.Errorf("predicted transition at env=%d has no measured discontinuity within %dB", p, tol)
					}
				}
				for _, m := range measured {
					if !within(m, predicted, tol) {
						t.Errorf("measured discontinuity at env=%d has no predicted transition within %dB", m, tol)
					}
				}
			})
		}
	}
}

func within(x uint64, ys []uint64, tol uint64) bool {
	for _, y := range ys {
		d := x - y
		if x < y {
			d = y - x
		}
		if d <= tol {
			return true
		}
	}
	return false
}
