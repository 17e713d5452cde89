package core

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/machine"
)

// TestConcurrentMeasureBitIdentical compares a concurrent sweep against a
// sequential one point by point: pooled machines, the link cache and the
// singleflight paths must never leak state between measurements.
func TestConcurrentMeasureBitIdentical(t *testing.T) {
	b, _ := bench.ByName("bzip2")
	setups := make([]Setup, 18)
	for i := range setups {
		s := DefaultSetup([]string{"p4", "core2", "m5"}[i%3])
		s.EnvBytes = uint64(17 + 32*i)
		if i%2 == 1 {
			s.Compiler.Level = compiler.O3
		}
		if i%3 == 2 {
			s.TextPad = 32
		}
		setups[i] = s
	}

	sequential := make([]Measurement, len(setups))
	seqRunner := NewRunner(bench.SizeTest)
	for i, s := range setups {
		m, err := seqRunner.Measure(context.Background(), b, s)
		if err != nil {
			t.Fatal(err)
		}
		sequential[i] = *m
	}

	concurrent := make([]Measurement, len(setups))
	conRunner := NewRunner(bench.SizeTest)
	err := ForEach(context.Background(), len(setups), 8, func(_ context.Context, i int) error {
		m, err := conRunner.Measure(context.Background(), b, setups[i])
		if err != nil {
			return err
		}
		concurrent[i] = *m
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range setups {
		s, c := sequential[i], concurrent[i]
		if s.Cycles != c.Cycles || s.Counters != c.Counters || s.Checksum != c.Checksum {
			t.Errorf("setup %d: concurrent measurement diverged:\nseq: %+v\ncon: %+v", i, s, c)
		}
	}
}

// TestCompileFailureSurfacesError drives a deliberately uncompilable
// benchmark through concurrent Measure calls: every caller must get an
// error (the singleflight waiters retry and hit the failure themselves,
// never a nil-objects success), and a ForEach sweep over the same
// benchmark surfaces the failure while cancelling the rest of the work.
func TestCompileFailureSurfacesError(t *testing.T) {
	bad := bench.Synthetic("broken", func(int) []compiler.Source {
		return []compiler.Source{{Name: "broken.cm", Text: "int main( {{{ not a program"}}
	})
	r := NewRunner(bench.SizeTest)
	var errCount atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := r.Measure(context.Background(), bad, DefaultSetup("core2"))
			if err != nil {
				errCount.Add(1)
				if !strings.Contains(err.Error(), "broken") {
					t.Errorf("error does not identify the benchmark: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if got := errCount.Load(); got != 8 {
		t.Errorf("want all 8 concurrent Measure calls to fail, got %d failures", got)
	}

	// Through ForEach, the first failure cancels the remaining indices and
	// the sweep reports the real error, not a cancellation.
	var started atomic.Int32
	sweepErr := ForEach(context.Background(), 8, 8, func(ctx context.Context, i int) error {
		started.Add(1)
		_, err := r.Measure(ctx, bad, DefaultSetup("core2"))
		return err
	})
	if sweepErr == nil {
		t.Fatal("sweep over uncompilable benchmark reported success")
	}
	if !strings.Contains(sweepErr.Error(), "broken") {
		t.Errorf("sweep error does not identify the benchmark: %v", sweepErr)
	}
	if started.Load() == 0 {
		t.Error("no index ran")
	}
}

// TestRegisterMachinePurgesPool is the regression test for the stale-pool
// bug: re-registering a custom machine name must not hand out machines
// built from the previous configuration.
func TestRegisterMachinePurgesPool(t *testing.T) {
	b, _ := bench.ByName("libquantum")
	setup := DefaultSetup("ablated")

	slow := machine.PentiumIV()
	slow.Name = "ablated"
	fast := slow
	fast.Penalties.Mispredict += 100 // guaranteed to change cycle counts

	r := NewRunner(bench.SizeTest)
	r.RegisterMachine("ablated", slow)
	first, err := r.Measure(context.Background(), b, setup)
	if err != nil {
		t.Fatal(err)
	}
	// The machine used above is now idle in the pool. Re-register with a
	// different config; the next measurement must reflect it.
	r.RegisterMachine("ablated", fast)
	second, err := r.Measure(context.Background(), b, setup)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cycles == second.Cycles {
		t.Fatalf("re-registered config ignored: both runs took %d cycles (stale machine pool)", first.Cycles)
	}

	// And the re-registered config must measure identically to a fresh
	// runner that only ever saw it.
	fresh := NewRunner(bench.SizeTest)
	fresh.RegisterMachine("ablated", fast)
	want, err := fresh.Measure(context.Background(), b, setup)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cycles != want.Cycles {
		t.Errorf("re-registered config cycles %d != fresh runner cycles %d", second.Cycles, want.Cycles)
	}
}

// TestReleaseDropsReplacedMachine is the regression test for a machine
// that is out of the pool while its name is re-registered: returning it
// must not put the old geometry back into the pool RegisterMachine just
// purged.
func TestReleaseDropsReplacedMachine(t *testing.T) {
	b, _ := bench.ByName("libquantum")
	setup := DefaultSetup("ablated")

	slow := machine.PentiumIV()
	slow.Name = "ablated"
	fast := slow
	fast.Penalties.Mispredict += 100 // guaranteed to change cycle counts

	r := NewRunner(bench.SizeTest)
	if err := r.RegisterMachine("ablated", slow); err != nil {
		t.Fatal(err)
	}
	m, err := r.acquireMachine("ablated")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterMachine("ablated", fast); err != nil {
		t.Fatal(err)
	}
	r.releaseMachine("ablated", m)
	if n := len(r.machines["ablated"]); n != 0 {
		t.Fatalf("pool holds %d machine(s) built for the replaced config", n)
	}

	got, err := r.Measure(context.Background(), b, setup)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewRunner(bench.SizeTest)
	if err := fresh.RegisterMachine("ablated", fast); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Measure(context.Background(), b, setup)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles {
		t.Errorf("measured %d cycles after re-registering, fresh runner %d (stale machine returned to pool)", got.Cycles, want.Cycles)
	}
}

// TestPooledCoRunBitIdentical interleaves solo and co-run measurements on
// one Runner, so co-runs reuse machines and image buffers that solo runs
// and other co-runs dirtied. Every measurement must be bit-identical to
// the same setup measured first thing on a fresh Runner.
func TestPooledCoRunBitIdentical(t *testing.T) {
	b, _ := bench.ByName("hmmer")
	var setups []Setup
	for _, mach := range []string{"core2", "p4"} {
		solo := DefaultSetup(mach)
		coMilc, coLbm := solo, solo
		coMilc.CoRunner = CoRunner{Bench: "milc"}
		coLbm.CoRunner = CoRunner{Bench: "lbm", Quantum: 1000}
		shifted := solo
		shifted.EnvBytes = 1000
		setups = append(setups, solo, coMilc, coLbm, shifted)
	}

	shared := NewRunner(bench.SizeTest)
	for i, s := range setups {
		got, err := shared.Measure(context.Background(), b, s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewRunner(bench.SizeTest).Measure(context.Background(), b, s)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want.Cycles || got.Counters != want.Counters || got.Checksum != want.Checksum {
			t.Errorf("setup %d (%s): pooled measurement diverged from a fresh Runner:\npooled: %+v\nfresh:  %+v", i, s, got, want)
		}
	}
}
