//go:build faultinject

package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"biaslab/internal/analysis"
	"biaslab/internal/bench"
	"biaslab/internal/faultinject"
)

// These tests require the faultinject build tag:
//
//	go test -tags faultinject ./internal/core/
//
// They prove the runner's fault model end to end: an injected failure at
// any pipeline stage surfaces as a typed *MeasurementError carrying the
// stage and the exact failing setup; panics are contained; transient
// faults are retried exactly once; and checkpointed sweeps interrupted by
// a fault resume to byte-identical results.

// TestInjectedFaultEveryStage injects a permanent fault at each of the four
// stages in turn and checks the typed error contract.
func TestInjectedFaultEveryStage(t *testing.T) {
	b, _ := bench.ByName("bzip2")
	setup := DefaultSetup("core2")
	setup.EnvBytes = 777

	stages := []struct {
		name string
		want Stage
	}{
		{"compile", StageCompile},
		{"link", StageLink},
		{"load", StageLoad},
		{"measure", StageMeasure},
	}
	for _, tc := range stages {
		faultinject.Reset()
		faultinject.Arm(faultinject.Fault{Stage: tc.name, Mode: faultinject.ModeError})

		r := NewRunner(bench.SizeTest) // fresh caches so every stage actually runs
		_, err := r.Measure(context.Background(), b, setup)
		faultinject.Reset()
		if err == nil {
			t.Errorf("%s: injected fault did not surface", tc.name)
			continue
		}
		var me *MeasurementError
		if !errors.As(err, &me) {
			t.Errorf("%s: error %v is not a *MeasurementError", tc.name, err)
			continue
		}
		if me.Stage != tc.want {
			t.Errorf("%s: Stage = %v, want %v", tc.name, me.Stage, tc.want)
		}
		if me.Benchmark != b.Name || me.Setup.EnvBytes != 777 {
			t.Errorf("%s: failing setup not attached: %q %s", tc.name, me.Benchmark, me.Setup)
		}
		var inj *faultinject.InjectedError
		if !errors.As(err, &inj) || inj.Stage != tc.name {
			t.Errorf("%s: injected cause lost: %v", tc.name, err)
		}
		if me.Attempts != 1 {
			t.Errorf("%s: permanent fault retried (%d attempts)", tc.name, me.Attempts)
		}
	}
}

// TestInjectedPanicIsolated: a panic inside a stage is recovered at the
// runner boundary, wrapped as *PanicError inside *MeasurementError, and
// the typed panic value stays matchable through the chain.
func TestInjectedPanicIsolated(t *testing.T) {
	defer faultinject.Reset()
	b, _ := bench.ByName("bzip2")

	for _, stage := range []string{"compile", "measure"} {
		faultinject.Reset()
		faultinject.Arm(faultinject.Fault{Stage: stage, Mode: faultinject.ModePanic})

		r := NewRunner(bench.SizeTest)
		_, err := r.Measure(context.Background(), b, DefaultSetup("core2"))
		if err == nil {
			t.Fatalf("%s: injected panic did not surface as an error", stage)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Errorf("%s: panic not wrapped as *PanicError: %v", stage, err)
			continue
		}
		if len(pe.Stack) == 0 {
			t.Errorf("%s: panic stack not captured", stage)
		}
		var inj *faultinject.InjectedError
		if !errors.As(err, &inj) {
			t.Errorf("%s: typed panic value lost through recovery: %v", stage, err)
		}
		var me *MeasurementError
		if !errors.As(err, &me) || me.Benchmark != b.Name {
			t.Errorf("%s: panic lacks measurement context: %v", stage, err)
		}
	}
}

// TestTransientFaultRetriedOnce: a fault that fires once and marks itself
// transient costs a retry, not the measurement.
func TestTransientFaultRetriedOnce(t *testing.T) {
	defer faultinject.Reset()
	b, _ := bench.ByName("bzip2")
	setup := DefaultSetup("core2")

	// Reference value, measured clean.
	clean, err := NewRunner(bench.SizeTest).Measure(context.Background(), b, setup)
	if err != nil {
		t.Fatal(err)
	}

	for _, stage := range []string{"compile", "link", "load", "measure"} {
		faultinject.Reset()
		faultinject.Arm(faultinject.Fault{Stage: stage, Mode: faultinject.ModeTransient})

		m, err := NewRunner(bench.SizeTest).Measure(context.Background(), b, setup)
		if err != nil {
			t.Errorf("%s: transient fault not absorbed by retry: %v", stage, err)
			continue
		}
		if faultinject.Fired() != 1 {
			t.Errorf("%s: fault fired %d times, want 1", stage, faultinject.Fired())
		}
		if m.Cycles != clean.Cycles || m.Checksum != clean.Checksum {
			t.Errorf("%s: retried measurement diverged: %d cycles vs clean %d", stage, m.Cycles, clean.Cycles)
		}
	}
}

// TestTransientFaultExhaustsRetry: a transient fault that persists through
// the retry fails the measurement with the attempt count on record.
func TestTransientFaultExhaustsRetry(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Arm(faultinject.Fault{Stage: "measure", Mode: faultinject.ModeTransient, Times: 2})

	b, _ := bench.ByName("bzip2")
	_, err := NewRunner(bench.SizeTest).Measure(context.Background(), b, DefaultSetup("core2"))
	if err == nil {
		t.Fatal("persistent transient fault did not fail the measurement")
	}
	var me *MeasurementError
	if !errors.As(err, &me) {
		t.Fatalf("error %v is not a *MeasurementError", err)
	}
	if me.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2 (original + one retry)", me.Attempts)
	}
	if !IsTransient(err) {
		t.Error("exhausted transient fault should still classify as transient")
	}
}

// TestSweepPartialResultsExplicitGaps: a sweep hit by a fault returns the
// completed points with the gap explicit (shorter slice, wrapped error) —
// never a silently padded result.
func TestSweepPartialResultsExplicitGaps(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	// Only the 512-byte point fails; note "env=512B" cannot match 5120.
	faultinject.Arm(faultinject.Fault{Stage: "measure", Match: "env=512B", Mode: faultinject.ModeError})

	b, _ := bench.ByName("hmmer")
	sizes := []uint64{8, 512, 1024}
	points, err := EnvSweep(context.Background(), NewRunner(bench.SizeTest), b, DefaultSetup("p4"), sizes)
	if err == nil {
		t.Fatal("faulted sweep reported success")
	}
	if len(points) >= len(sizes) {
		t.Errorf("partial sweep returned %d points for %d sizes; the gap must be explicit", len(points), len(sizes))
	}
	for _, p := range points {
		if p.EnvBytes == 512 {
			t.Error("the failed point leaked into the completed set")
		}
	}
	var inj *faultinject.InjectedError
	if !errors.As(err, &inj) {
		t.Errorf("sweep error does not expose the injected cause: %v", err)
	}
}

// TestFaultedSweepResumesByteIdentical is the resume-convergence
// contract: a checkpointed sweep interrupted by a fault, then resumed with
// the fault cleared, must produce exactly what an uninterrupted run does.
func TestFaultedSweepResumesByteIdentical(t *testing.T) {
	defer faultinject.Reset()
	b, _ := bench.ByName("hmmer")
	setup := DefaultSetup("p4")
	sizes := []uint64{8, 512, 1024, 2048, 4096}

	clean, err := EnvSweep(context.Background(), NewRunner(bench.SizeTest), b, setup, sizes)
	if err != nil {
		t.Fatal(err)
	}

	ck := newMemCheckpoint()
	faultinject.Reset()
	faultinject.Arm(faultinject.Fault{Stage: "measure", Match: "env=1024B", Mode: faultinject.ModeError})
	partial, err := EnvSweepCheckpointed(context.Background(), NewRunner(bench.SizeTest), b, setup, sizes, ck)
	faultinject.Reset()
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	if len(partial) >= len(sizes) {
		t.Fatalf("interrupted run returned %d points, want a gap", len(partial))
	}

	resumed, err := EnvSweepCheckpointed(context.Background(), NewRunner(bench.SizeTest), b, setup, sizes, ck)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if len(resumed) != len(clean) {
		t.Fatalf("resumed run has %d points, want %d", len(resumed), len(clean))
	}
	for i := range clean {
		if resumed[i] != clean[i] {
			t.Errorf("point %d: resumed %+v != clean %+v", i, resumed[i], clean[i])
		}
	}
}

// plannedFaultSweep is the planned-driver fixture of the tests below: an
// env grid of hmmer on p4 and the real oracle plan for it. Grid point 0
// (env=8B) opens the first plateau, so it is always a probe and always
// measured; the fault keys below match it and no other point.
func plannedFaultSweep(t *testing.T) (*bench.Benchmark, Grid[EnvPoint], *analysis.EnvPlan) {
	t.Helper()
	b, _ := bench.ByName("hmmer")
	setup := DefaultSetup("p4")
	sizes := DefaultEnvSizes(512)
	plan, err := PlanEnvSweep(NewRunner(bench.SizeTest), b, setup, sizes)
	if err != nil {
		t.Fatal(err)
	}
	return b, EnvGrid(setup, sizes), plan
}

// TestPlannedSweepPartialResultsExplicitGaps: SweepPlanned keeps Sweep's
// partial-result contract — a faulted point is absent from a shorter
// result, and the error exposes the injected cause.
func TestPlannedSweepPartialResultsExplicitGaps(t *testing.T) {
	defer faultinject.Reset()
	b, g, plan := plannedFaultSweep(t)
	faultinject.Reset()
	faultinject.Arm(faultinject.Fault{Stage: "measure", Match: "env=8B", Mode: faultinject.ModeError})

	points, _, err := SweepPlanned(context.Background(), NewRunner(bench.SizeTest), b, g, plan, nil)
	if err == nil {
		t.Fatal("faulted planned sweep reported success")
	}
	if len(points) >= len(g.Setups) {
		t.Errorf("partial sweep returned %d points for %d grid points; the gap must be explicit", len(points), len(g.Setups))
	}
	for _, p := range points {
		if p.EnvBytes == 8 {
			t.Error("the failed point leaked into the completed set")
		}
	}
	var inj *faultinject.InjectedError
	if !errors.As(err, &inj) {
		t.Errorf("sweep error does not expose the injected cause: %v", err)
	}
}

// TestFaultedPlannedSweepResumesByteIdentical: a checkpointed planned sweep
// interrupted by a fault, then resumed with the fault cleared, returns
// exactly what an uninterrupted run does.
func TestFaultedPlannedSweepResumesByteIdentical(t *testing.T) {
	defer faultinject.Reset()
	b, g, plan := plannedFaultSweep(t)
	ctx := context.Background()

	clean, _, err := SweepPlanned(ctx, NewRunner(bench.SizeTest), b, g, plan, nil)
	if err != nil {
		t.Fatal(err)
	}

	ck := newMemCheckpoint()
	faultinject.Reset()
	faultinject.Arm(faultinject.Fault{Stage: "measure", Match: "env=8B", Mode: faultinject.ModeError})
	partial, _, err := SweepPlanned(ctx, NewRunner(bench.SizeTest), b, g, plan, ck)
	faultinject.Reset()
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	if len(partial) >= len(g.Setups) {
		t.Fatalf("interrupted run returned %d points, want a gap", len(partial))
	}

	resumed, _, err := SweepPlanned(ctx, NewRunner(bench.SizeTest), b, g, plan, ck)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if !reflect.DeepEqual(resumed, clean) {
		t.Errorf("resumed planned sweep diverges from the uninterrupted run:\nresumed %+v\nclean   %+v", resumed, clean)
	}
}

// TestPlannedSweepPanicContained: a panic in one worker's measurement is
// recovered at that point's fault boundary and reported with the point's
// stage and setup; its image is dropped rather than released. The same
// runner then resumes the sweep to the uninterrupted result, and its
// machine pool holds at most one machine per worker: every point holds one
// machine at a time, as in a dense sweep.
func TestPlannedSweepPanicContained(t *testing.T) {
	defer faultinject.Reset()
	b, g, plan := plannedFaultSweep(t)
	ctx := context.Background()

	clean, _, err := SweepPlanned(ctx, NewRunner(bench.SizeTest), b, g, plan, nil)
	if err != nil {
		t.Fatal(err)
	}

	r := NewRunner(bench.SizeTest)
	ck := newMemCheckpoint()
	faultinject.Reset()
	faultinject.Arm(faultinject.Fault{Stage: "measure", Match: "env=8B", Mode: faultinject.ModePanic})
	partial, _, err := SweepPlanned(ctx, r, b, g, plan, ck)
	faultinject.Reset()
	if err == nil {
		t.Fatal("panicked planned sweep reported success")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic not wrapped as *PanicError: %v", err)
	}
	var me *MeasurementError
	if !errors.As(err, &me) || me.Stage != StageMeasure || me.Setup.EnvBytes != 8 {
		t.Errorf("panic not attributed to its point's measure stage: %v", err)
	}
	for _, p := range partial {
		if p.EnvBytes == 8 {
			t.Error("the panicked point leaked into the completed set")
		}
	}

	resumed, _, err := SweepPlanned(ctx, r, b, g, plan, ck)
	if err != nil {
		t.Fatalf("resume on the same runner failed: %v", err)
	}
	if !reflect.DeepEqual(resumed, clean) {
		t.Errorf("resume after a panic diverges from the uninterrupted run")
	}
	r.mu.Lock()
	pooled := len(r.machines["p4"])
	r.mu.Unlock()
	if workers := runtime.GOMAXPROCS(0); pooled > workers {
		t.Errorf("machine pool holds %d machines after the sweep, want at most one per worker (%d)", pooled, workers)
	}
}
