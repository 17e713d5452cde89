//go:build faultinject

package loader_test

import (
	"context"
	"testing"

	"biaslab/internal/bench"
	"biaslab/internal/core"
	"biaslab/internal/faultinject"
	"biaslab/internal/loader"
	"biaslab/internal/tenancy"
)

// TestFailedRunsReturnTheirBuffers: a measurement that fails after its
// images were loaded — a failed co-runner load, a failed solo run, a
// failed co-run — still releases them, so the free lists hold as many
// buffers after any number of failures as before, and a load never needs
// a new one. A buffer mapped outside the Go heap that is dropped instead
// is never freed. Run with -tags faultinject.
func TestFailedRunsReturnTheirBuffers(t *testing.T) {
	defer faultinject.Reset()
	ctx := context.Background()
	r := core.NewRunner(bench.SizeTest)
	subject, _ := bench.ByName("mcf")
	solo := core.DefaultSetup("core2")
	co := solo
	co.CoRunner = core.CoRunner{Bench: "lbm"}
	// One good run of each puts a subject and a co-runner buffer on the
	// free lists, so a dropped buffer shows as a shorter list.
	for _, s := range []core.Setup{solo, co} {
		if _, err := r.Measure(ctx, subject, s); err != nil {
			t.Fatal(err)
		}
	}
	sizes := []uint64{loader.DefaultMemSize, tenancy.CoRunnerMemSize}
	var before []int
	for _, size := range sizes {
		before = append(before, loader.FreeLen(size))
	}
	for _, tc := range []struct {
		name  string
		setup core.Setup
		fault faultinject.Fault
	}{
		// The second load of a co-run is the co-runner's, after the
		// subject's image is already loaded.
		{"co-runner load", co, faultinject.Fault{Stage: "load", After: 1, Times: 1}},
		{"solo measure", solo, faultinject.Fault{Stage: "measure"}},
		{"co-run measure", co, faultinject.Fault{Stage: "measure"}},
	} {
		for i := 0; i < 8; i++ {
			faultinject.Reset()
			faultinject.Arm(tc.fault)
			if _, err := r.Measure(ctx, subject, tc.setup); err == nil {
				t.Fatalf("%s: the injected fault did not fail the measurement", tc.name)
			}
			if faultinject.Fired() != 1 {
				t.Fatalf("%s: %d faults fired, want 1", tc.name, faultinject.Fired())
			}
		}
		for i, size := range sizes {
			if n := loader.FreeLen(size); n != before[i] {
				t.Errorf("%s: %d-byte free list holds %d buffers after 8 failures, %d before", tc.name, size, n, before[i])
			}
		}
	}
	faultinject.Reset()
	// The recycled buffers are still pristine: a good run after the
	// failures measures what it measured before them.
	for _, s := range []core.Setup{solo, co} {
		want, err := core.NewRunner(bench.SizeTest).Measure(ctx, subject, s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Measure(ctx, subject, s)
		if err != nil {
			t.Fatal(err)
		}
		if got.Counters != want.Counters || got.Checksum != want.Checksum {
			t.Errorf("%s: a run after the failures measured %+v, want %+v", s, got.Counters, want.Counters)
		}
	}
}
