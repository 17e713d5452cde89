package core

import (
	"context"
	"strings"
	"testing"

	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/stats"
)

func testBench(t *testing.T, name string) *bench.Benchmark {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("benchmark %s missing", name)
	}
	return b
}

func TestSetupHelpers(t *testing.T) {
	s := DefaultSetup("core2")
	if s.Machine != "core2" || s.Compiler.Level != compiler.O2 || s.EnvBytes != DefaultEnvBytes {
		t.Errorf("default setup wrong: %v", s)
	}
	s3 := s.WithLevel(compiler.O3)
	if s3.Compiler.Level != compiler.O3 || s.Compiler.Level != compiler.O2 {
		t.Error("WithLevel should copy")
	}
	if !strings.Contains(s.String(), "core2") {
		t.Error("String missing machine")
	}
	shift := s
	shift.StackShift = 8
	shift.LinkOrder = []int{1, 0}
	str := shift.String()
	if !strings.Contains(str, "shift=8") || !strings.Contains(str, "link=") {
		t.Errorf("String missing fields: %s", str)
	}
}

// TestSetupStringCoRunner pins the CoRunner rendering contract that
// checkpoint keys depend on: a zero co-runner renders NOTHING — so every
// legacy checkpoint key is byte-identical to its pre-tenancy form — and a
// configured one renders its full identity.
func TestSetupStringCoRunner(t *testing.T) {
	s := DefaultSetup("core2")
	legacy := s.String()
	if strings.Contains(legacy, "corun") {
		t.Fatalf("zero co-runner leaked into Setup.String: %s", legacy)
	}
	s.CoRunner = CoRunner{Bench: "milc", Level: "O3", Quantum: 1024}
	if got := s.String(); !strings.Contains(got, " corun=milc:O3/q1024") {
		t.Errorf("String missing co-runner: %s", got)
	}
	if got := (CoRunner{Bench: "milc"}).String(); got != "milc" {
		t.Errorf("defaulted co-runner renders %q, want bare bench name", got)
	}

	// Tenant point keys: deterministic, and separated by co-runner identity.
	base := DefaultSetup("core2")
	idle := TenantPointKey("sjeng", base, TenantIdle)
	milc := TenantPointKey("sjeng", base, "milc")
	if idle == milc {
		t.Error("idle and milc tenant points share a key")
	}
	if again := TenantPointKey("sjeng", base, "milc"); again != milc {
		t.Errorf("tenant keying not deterministic: %s vs %s", again, milc)
	}
	// The idle tenant point keys identically whether spelled "idle" or "":
	// both mean the machine to itself.
	if empty := TenantPointKey("sjeng", base, ""); empty != idle {
		t.Errorf("idle spellings diverge: %s vs %s", empty, idle)
	}
}

func TestOrders(t *testing.T) {
	if got := IdentityOrder(3); got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Error("identity order wrong")
	}
	names := []string{"c.cm", "a.cm", "b.cm"}
	alpha := AlphabeticalOrder(names)
	if names[alpha[0]] != "a.cm" || names[alpha[1]] != "b.cm" || names[alpha[2]] != "c.cm" {
		t.Errorf("alphabetical order wrong: %v", alpha)
	}
	rng := stats.NewRNG(5)
	r := RandomOrder(6, rng)
	if !ValidOrder(r, 6) {
		t.Errorf("random order invalid: %v", r)
	}
	if ValidOrder([]int{0, 0, 1}, 3) || ValidOrder([]int{0, 1}, 3) || ValidOrder([]int{0, 1, 5}, 3) {
		t.Error("ValidOrder accepts invalid permutations")
	}
}

func TestMeasureBasics(t *testing.T) {
	r := NewRunner(bench.SizeTest)
	b := testBench(t, "perlbench")
	m, err := r.Measure(context.Background(), b, DefaultSetup("core2"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycles == 0 || m.Checksum == 0 {
		t.Error("empty measurement")
	}
	// Same setup twice ⇒ identical cycles (deterministic simulator).
	m2, err := r.Measure(context.Background(), b, DefaultSetup("core2"))
	if err != nil {
		t.Fatal(err)
	}
	if m2.Cycles != m.Cycles {
		t.Errorf("determinism violated: %d vs %d", m.Cycles, m2.Cycles)
	}
}

func TestMeasureRejectsBadInput(t *testing.T) {
	r := NewRunner(bench.SizeTest)
	b := testBench(t, "perlbench")
	s := DefaultSetup("vax11")
	if _, err := r.Measure(context.Background(), b, s); err == nil || !strings.Contains(err.Error(), "unknown machine") {
		t.Errorf("unknown machine not rejected: %v", err)
	}
	s = DefaultSetup("core2")
	s.LinkOrder = []int{0, 0, 1, 2}
	if _, err := r.Measure(context.Background(), b, s); err == nil || !strings.Contains(err.Error(), "invalid link order") {
		t.Errorf("bad link order not rejected: %v", err)
	}
}

// TestOutputStableAcrossSetups is the metamorphic core of the whole paper:
// environment size and link order may change cycles but never output.
func TestOutputStableAcrossSetups(t *testing.T) {
	r := NewRunner(bench.SizeTest)
	b := testBench(t, "bzip2")
	base := DefaultSetup("p4")
	var first uint64
	rng := stats.NewRNG(11)
	for i, s := range []Setup{
		base,
		{Machine: "p4", Compiler: base.Compiler, EnvBytes: 2048},
		{Machine: "p4", Compiler: base.Compiler, EnvBytes: 17},
		{Machine: "p4", Compiler: base.Compiler, EnvBytes: 999, LinkOrder: RandomOrder(4, rng)},
		{Machine: "p4", Compiler: base.Compiler, EnvBytes: 512, StackShift: 256},
	} {
		m, err := r.Measure(context.Background(), b, s)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = m.Checksum
		} else if m.Checksum != first {
			t.Fatalf("setup %v changed output", s)
		}
	}
}

func TestSpeedupAndEnvSweep(t *testing.T) {
	r := NewRunner(bench.SizeTest)
	b := testBench(t, "hmmer")
	setup := DefaultSetup("core2")
	sp, mb, mo, err := r.Speedup(context.Background(), b, setup, compiler.O2, compiler.O3)
	if err != nil {
		t.Fatal(err)
	}
	if sp <= 0 || mb.Cycles == 0 || mo.Cycles == 0 {
		t.Errorf("bad speedup %v", sp)
	}
	points, err := EnvSweep(context.Background(), r, b, setup, []uint64{8, 512, 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Speedup <= 0 {
			t.Errorf("non-positive speedup at env %d", p.EnvBytes)
		}
	}
}

func TestDefaultEnvSizes(t *testing.T) {
	sizes := DefaultEnvSizes(128)
	if sizes[0] != 8 {
		t.Error("first size should be the empty environment")
	}
	for _, sz := range sizes {
		if sz > 8 && sz < 17 {
			t.Errorf("unrepresentable size %d in sweep", sz)
		}
		if sz > 4096 {
			t.Errorf("size %d beyond sweep bound", sz)
		}
	}
	if len(DefaultEnvSizes(0)) == 0 {
		t.Error("default step should work")
	}
}

func TestLinkSweep(t *testing.T) {
	r := NewRunner(bench.SizeTest)
	b := testBench(t, "gcc")
	points, err := Sweep(context.Background(), r, b, LinkGrid(DefaultSetup("m5"), LinkCandidates(r.UnitNames(b), 3, 77)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 { // default + alphabetical + 3 random
		t.Fatalf("points = %d", len(points))
	}
	if points[0].Label != "default" || points[1].Label != "alphabetical" {
		t.Error("labels wrong")
	}
	for _, p := range points {
		if !ValidOrder(p.Order, len(r.UnitNames(b))) {
			t.Errorf("%s: invalid order", p.Label)
		}
	}
}

func TestBiasReport(t *testing.T) {
	rep := NewBiasReport("x", "core2", "environment size", []float64{0.98, 1.01, 1.05, 0.99})
	if !rep.FlipsSign {
		t.Error("sign flip not detected")
	}
	if rep.BiasOverEffect <= 0 {
		t.Error("bias/effect not positive")
	}
	rep2 := NewBiasReport("y", "core2", "link order", []float64{1.05, 1.06, 1.07})
	if rep2.FlipsSign {
		t.Error("false sign flip")
	}
	if !strings.Contains(rep.String(), "FLIPS-SIGN") || strings.Contains(rep2.String(), "FLIPS-SIGN") {
		t.Error("String flip marker wrong")
	}
}

func TestRandomSetups(t *testing.T) {
	base := DefaultSetup("core2")
	setups := RandomSetups(base, 20, 4, 99)
	if len(setups) != 20 {
		t.Fatal("wrong count")
	}
	distinctEnv := map[uint64]bool{}
	for _, s := range setups {
		if s.EnvBytes != 8 && s.EnvBytes < 17 {
			t.Errorf("unrepresentable env size %d", s.EnvBytes)
		}
		if !ValidOrder(s.LinkOrder, 4) {
			t.Errorf("invalid link order %v", s.LinkOrder)
		}
		distinctEnv[s.EnvBytes] = true
	}
	if len(distinctEnv) < 10 {
		t.Errorf("env sizes not diverse: %d distinct", len(distinctEnv))
	}
	// Determinism.
	again := RandomSetups(base, 20, 4, 99)
	for i := range setups {
		if setups[i].EnvBytes != again[i].EnvBytes {
			t.Fatal("RandomSetups not deterministic")
		}
	}
}

func TestEstimateSpeedup(t *testing.T) {
	r := NewRunner(bench.SizeTest)
	b := testBench(t, "libquantum")
	est, err := EstimateSpeedup(context.Background(), r, b, DefaultSetup("m5"), 6, 123)
	if err != nil {
		t.Fatal(err)
	}
	if est.N != 6 || len(est.Speedups) != 6 {
		t.Error("sample count wrong")
	}
	if !est.TInterval.Contains(est.Mean) {
		t.Error("t interval excludes its own mean")
	}
	if !est.Bootstrap.Contains(est.Mean) {
		t.Error("bootstrap interval excludes its own mean")
	}
	verdicts, err := CompareSingleSetups(context.Background(), r, b, est, map[string]Setup{
		"small-env": {Machine: "m5", Compiler: est.speedupCfg(), EnvBytes: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 1 || verdicts[0].Speedup <= 0 {
		t.Error("verdicts wrong")
	}
}

// speedupCfg gives tests access to the compiler config used in estimates.
func (e *RobustEstimate) speedupCfg() compiler.Config {
	return compiler.Config{Level: compiler.O2, Personality: compiler.GCC}
}

func TestCausalStudy(t *testing.T) {
	r := NewRunner(bench.SizeTest)
	b := testBench(t, "mcf")
	rep, err := CausalStudy(context.Background(), r, b, DefaultSetup("p4"), 512, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 5 {
		t.Fatalf("points = %d", len(rep.Points))
	}
	if len(rep.Correlations) == 0 {
		t.Error("no counter correlations")
	}
	for i := 1; i < len(rep.Correlations); i++ {
		if abs(rep.Correlations[i].Pearson) > abs(rep.Correlations[i-1].Pearson) {
			t.Error("correlations not sorted by |r|")
		}
	}
	if rep.TopCause().Counter == "cycles" || rep.TopCause().Counter == "instructions" {
		t.Error("TopCause should skip trivial counters")
	}
	if len(rep.String()) == 0 {
		t.Error("String empty")
	}
}

func TestTextPadFactor(t *testing.T) {
	r := NewRunner(bench.SizeTest)
	b := testBench(t, "milc")
	base := DefaultSetup("m5")
	padded := base
	padded.TextPad = 128
	m0, err := r.Measure(context.Background(), b, base)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := r.Measure(context.Background(), b, padded)
	if err != nil {
		t.Fatal(err)
	}
	if m0.Checksum != m1.Checksum {
		t.Fatal("text padding changed output")
	}
	if !strings.Contains(padded.String(), "pad=128") {
		t.Error("String missing pad")
	}
	// Cycles will usually differ (layout moved); don't assert inequality —
	// on some benchmarks the layouts tie — but both must be positive.
	if m0.Cycles == 0 || m1.Cycles == 0 {
		t.Error("empty measurements")
	}
}

func TestEstimateSpeedupAdaptive(t *testing.T) {
	r := NewRunner(bench.SizeTest)
	b := testBench(t, "gcc")
	// Loose tolerance: should stop well before maxN.
	est, err := EstimateSpeedupAdaptive(context.Background(), r, b, DefaultSetup("m5"), 0.05, 4, 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	if est.N < 4 || est.N > 24 {
		t.Errorf("adaptive N = %d out of bounds", est.N)
	}
	if est.N == 24 {
		t.Logf("note: loose tolerance still used all samples (N=%d, CI %v)", est.N, est.TInterval)
	}
	// Impossible tolerance: must stop at maxN.
	est2, err := EstimateSpeedupAdaptive(context.Background(), r, b, DefaultSetup("m5"), 0, 4, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if est2.N != 8 {
		t.Errorf("zero tolerance should exhaust maxN: N=%d", est2.N)
	}
	// Prefix property: adaptive samples are a prefix of the full draw, so
	// a wider run extends (not replaces) a narrower one.
	for i := range est.Speedups {
		if i < len(est2.Speedups) && est.Speedups[i] != est2.Speedups[i] {
			t.Errorf("sample %d differs between runs with same seed", i)
		}
	}
}

func TestCompareConfigs(t *testing.T) {
	r := NewRunner(bench.SizeTest)
	b := testBench(t, "hmmer")
	a := compiler.Config{Level: compiler.O2}
	bc := compiler.Config{Level: compiler.O0}
	cmp, err := CompareConfigs(context.Background(), r, b, DefaultSetup("m5"), a, bc, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.N != 5 || len(cmp.Ratios) != 5 {
		t.Error("sample count wrong")
	}
	// O2 vs O0 is decisive: ratio (cycles O0 / cycles O2) well above 1.
	if cmp.Mean <= 1.1 {
		t.Errorf("O2-vs-O0 ratio implausibly small: %v", cmp.Mean)
	}
	if cmp.Verdict() != "A" {
		t.Errorf("verdict = %q, want A (O2 wins)", cmp.Verdict())
	}
	if cmp.EffectSize <= 0 {
		t.Errorf("effect size %v should be positive (B slower)", cmp.EffectSize)
	}
	// Self-comparison is inconclusive by construction.
	self, err := CompareConfigs(context.Background(), r, b, DefaultSetup("m5"), a, a, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if self.Verdict() != "inconclusive" {
		t.Errorf("self comparison verdict = %q", self.Verdict())
	}
}
