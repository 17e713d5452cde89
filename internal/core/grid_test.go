package core

import (
	"context"
	"reflect"
	"testing"

	"biaslab/internal/analysis"
	"biaslab/internal/bench"
)

// Env-sweep shorthands for the tests: the env grid through the dense or
// the planned driver.

func EnvSweep(ctx context.Context, r *Runner, b *bench.Benchmark, setup Setup, sizes []uint64) ([]EnvPoint, error) {
	return Sweep(ctx, r, b, EnvGrid(setup, sizes), nil)
}

func EnvSweepCheckpointed(ctx context.Context, r *Runner, b *bench.Benchmark, setup Setup, sizes []uint64, ck Checkpoint) ([]EnvPoint, error) {
	return Sweep(ctx, r, b, EnvGrid(setup, sizes), ck)
}

func EnvSweepAdaptive(ctx context.Context, r *Runner, b *bench.Benchmark, setup Setup, sizes []uint64, ck Checkpoint) ([]EnvPoint, AdaptiveSweepStats, error) {
	plan, err := PlanEnvSweep(r, b, setup, sizes)
	if err != nil {
		return nil, AdaptiveSweepStats{}, err
	}
	return envSweepPlanned(ctx, r, b, setup, sizes, plan, ck)
}

func envSweepPlanned(ctx context.Context, r *Runner, b *bench.Benchmark, setup Setup, sizes []uint64, plan *analysis.EnvPlan, ck Checkpoint) ([]EnvPoint, AdaptiveSweepStats, error) {
	return SweepPlanned(ctx, r, b, EnvGrid(setup, sizes), plan, ck)
}

// TestLinkReplayKeepsCoincidentLabels: with three units, a random
// permutation of mcf coincides with the default order, so two link points
// share one checkpoint key. A resumed sweep must replay both and still
// label each by its own candidate, not by whichever one was journalled.
func TestLinkReplayKeepsCoincidentLabels(t *testing.T) {
	b, _ := bench.ByName("mcf")
	r := NewRunner(bench.SizeTest)
	g := LinkGrid(DefaultSetup("core2"), LinkCandidates(r.UnitNames(b), 4, 1))
	shared := false
	for i := 1; i < len(g.Setups); i++ {
		shared = shared || g.Key(b.Name, i) == g.Key(b.Name, 0)
	}
	if !shared {
		t.Fatal("no random order coincides with the default one; pick another seed")
	}
	ck := newMemCheckpoint()
	first, err := Sweep(context.Background(), r, b, g, ck)
	if err != nil {
		t.Fatal(err)
	}
	before := ck.recorded()
	second, err := Sweep(context.Background(), NewRunner(bench.SizeTest), b, g, ck)
	if err != nil {
		t.Fatal(err)
	}
	if ck.recorded() != before {
		t.Errorf("resumed sweep re-measured %d points", ck.recorded()-before)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("replayed points diverge:\n%+v\n%+v", first, second)
	}
}

// TestRandomGridSharesSweepDriver: a randomize grid measured through the
// dense driver and replayed from its journal yields the estimate
// EstimateSpeedup computes.
func TestRandomGridSharesSweepDriver(t *testing.T) {
	b, _ := bench.ByName("hmmer")
	r := NewRunner(bench.SizeTest)
	base := DefaultSetup("p4")
	setups := RandomSetups(base, 6, len(r.UnitNames(b)), 3)
	ck := newMemCheckpoint()
	if _, err := Sweep(context.Background(), r, b, RandomGrid(setups), ck); err != nil {
		t.Fatal(err)
	}
	replayed, err := Sweep(context.Background(), NewRunner(bench.SizeTest), b, RandomGrid(setups), ck)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EstimateSpeedup(context.Background(), r, b, base, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := RandomEstimate(b.Name, base.Machine, setups, replayed, 3, false); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed estimate %+v != measured %+v", got, want)
	}
}
