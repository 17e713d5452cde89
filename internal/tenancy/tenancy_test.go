package tenancy_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"biaslab/internal/bench"
	"biaslab/internal/core"
	"biaslab/internal/linker"
	"biaslab/internal/loader"
	"biaslab/internal/machine"
	"biaslab/internal/tenancy"
)

// One shared Runner: every image below is built through its compile/link
// caches, so the whole file costs a handful of compiles.
var runner = core.NewRunner(bench.SizeTest)

func corunCfg(t testing.TB) machine.Config {
	cfg, ok := machine.ConfigByName("core2")
	if !ok {
		t.Fatal("no core2 machine config")
	}
	return cfg
}

// loadSubject builds and loads a benchmark in the subject's half of the
// address-space plan (the loader defaults).
func loadSubject(t testing.TB, name string) *loader.Image {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("no benchmark %q", name)
	}
	exe, err := runner.Executable(b, core.DefaultSetup("core2"))
	if err != nil {
		t.Fatal(err)
	}
	img, err := loader.Load(exe, loader.Options{
		Env:  loader.SyntheticEnv(core.DefaultEnvBytes),
		Args: []string{name},
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// loadCoRunner builds and loads a benchmark in the co-runner's half.
func loadCoRunner(t testing.TB, name string) *loader.Image {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("no benchmark %q", name)
	}
	setup := core.DefaultSetup("core2")
	setup.TextBase = linker.DefaultTextBase + tenancy.CoRunnerOffset
	exe, err := runner.Executable(b, setup)
	if err != nil {
		t.Fatal(err)
	}
	img, err := loader.Load(exe, tenancy.CoRunnerLoadOptions(
		loader.SyntheticEnv(core.DefaultEnvBytes), []string{name}))
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// solo runs a freshly loaded image alone on a fresh machine.
func solo(t testing.TB, img *loader.Image) *machine.Result {
	t.Helper()
	res, err := machine.New(corunCfg(t)).Run(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCoRunDeterministic: the same co-run twice is byte-identical, per
// tenant — counters, outputs and checksums — and interference never
// changes either tenant's output.
func TestCoRunDeterministic(t *testing.T) {
	cfg := corunCfg(t)
	run := func() (*machine.Result, *machine.Result) {
		a, b, err := tenancy.CoRun(context.Background(),
			cfg, loadSubject(t, "hmmer"), loadCoRunner(t, "milc"), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	a1, b1 := run()
	a2, b2 := run()
	if !reflect.DeepEqual(a1, a2) {
		t.Errorf("subject results differ across identical co-runs:\n%+v\nvs\n%+v", a1, a2)
	}
	if !reflect.DeepEqual(b1, b2) {
		t.Errorf("co-runner results differ across identical co-runs:\n%+v\nvs\n%+v", b1, b2)
	}

	// The metamorphic invariant extends to tenancy: co-running changes
	// cycles, never output.
	if want := solo(t, loadSubject(t, "hmmer")).Checksum; a1.Checksum != want {
		t.Errorf("subject checksum %d under co-run, %d solo — interference changed OUTPUT", a1.Checksum, want)
	}
	if want := solo(t, loadCoRunner(t, "milc")).Checksum; b1.Checksum != want {
		t.Errorf("co-runner checksum %d under co-run, %d solo — interference changed OUTPUT", b1.Checksum, want)
	}
}

// TestCoRunSoloDegenerate: an effectively infinite quantum means the
// subject runs start to finish before the co-runner's first instruction,
// on a freshly reset hierarchy — so its result must be bit-identical to a
// solo run, in both the production engine and the reference interpreter.
func TestCoRunSoloDegenerate(t *testing.T) {
	cfg := corunCfg(t)
	a, _, err := tenancy.CoRun(context.Background(),
		cfg, loadSubject(t, "hmmer"), loadCoRunner(t, "libquantum"), math.MaxUint64, 0)
	if err != nil {
		t.Fatal(err)
	}

	want, err := machine.New(cfg).Run(loadSubject(t, "hmmer"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, want) {
		t.Errorf("quantum=∞ co-run differs from solo Run:\n%+v\nvs\n%+v", a, want)
	}

	ref, err := machine.New(cfg).RunReference(loadSubject(t, "hmmer"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, ref) {
		t.Errorf("quantum=∞ co-run differs from solo RunReference:\n%+v\nvs\n%+v", a, ref)
	}
}

// TestCoRunSharedCacheEviction: the channel is real — a co-runner
// walking its own working set through the shared hierarchy must strictly
// raise the subject's data-cache misses and cycles over a solo run.
func TestCoRunSharedCacheEviction(t *testing.T) {
	alone := solo(t, loadSubject(t, "hmmer"))
	shared, _, err := tenancy.CoRun(context.Background(),
		corunCfg(t), loadSubject(t, "hmmer"), loadCoRunner(t, "milc"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	soloMisses := alone.Counters.L1DMisses + alone.Counters.L2Misses
	coMisses := shared.Counters.L1DMisses + shared.Counters.L2Misses
	if coMisses <= soloMisses {
		t.Errorf("co-run data misses %d not above solo %d — no shared-cache eviction observed", coMisses, soloMisses)
	}
	if shared.Counters.Cycles <= alone.Counters.Cycles {
		t.Errorf("co-run cycles %d not above solo %d", shared.Counters.Cycles, alone.Counters.Cycles)
	}
	if shared.Counters.Instructions != alone.Counters.Instructions {
		t.Errorf("co-run retired %d instructions, solo %d — interference must never change the instruction stream",
			shared.Counters.Instructions, alone.Counters.Instructions)
	}
}

// TestCoRunCancellation: a pre-cancelled context aborts the co-run even
// mid-quantum with an enormous quantum.
func TestCoRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := tenancy.CoRun(ctx,
		corunCfg(t), loadSubject(t, "hmmer"), loadCoRunner(t, "milc"), math.MaxUint64, 0)
	if err != context.Canceled {
		t.Errorf("cancelled co-run returned %v, want context.Canceled", err)
	}
}

// TestCoRunOnReusedPrime: a prime machine that already ran a solo program
// and a co-run, as a pooled machine has, co-runs bit-identically to the
// fresh machine CoRun builds.
func TestCoRunOnReusedPrime(t *testing.T) {
	cfg := corunCfg(t)
	want, wantCo, err := tenancy.CoRun(context.Background(),
		cfg, loadSubject(t, "hmmer"), loadCoRunner(t, "milc"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	prime := machine.New(cfg)
	if _, err := prime.Run(loadSubject(t, "mcf"), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, gotCo, err := tenancy.CoRunOn(context.Background(),
			prime, loadSubject(t, "hmmer"), loadCoRunner(t, "milc"), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotCo, wantCo) {
			t.Errorf("co-run %d on a reused prime differs from a fresh one:\n%+v\nvs\n%+v", i, got, want)
		}
	}
}
