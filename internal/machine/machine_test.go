package machine

import (
	"slices"
	"strings"
	"testing"

	"biaslab/internal/compiler"
	"biaslab/internal/ir"
	"biaslab/internal/linker"
	"biaslab/internal/loader"
)

// buildImage compiles sources, links them, and loads with the given options.
func buildImage(t *testing.T, cfg compiler.Config, opts loader.Options, srcs ...string) (*loader.Image, *ir.Program) {
	t.Helper()
	sources := make([]compiler.Source, len(srcs))
	for i, s := range srcs {
		sources[i] = compiler.Source{Name: "u" + string(rune('0'+i)) + ".cm", Text: s}
	}
	objs, prog, err := compiler.Compile(sources, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	exe, err := linker.Link(objs, linker.Options{})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	img, err := loader.Load(exe, opts)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return img, prog
}

func irChecksum(t *testing.T, prog *ir.Program) uint64 {
	t.Helper()
	it, err := ir.NewInterp(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Run(); err != nil {
		t.Fatal(err)
	}
	return it.Checksum
}

const smokeSrc = `
int acc;
int mix(int a, int b) { return a * 31 + b; }
void main() {
	acc = 7;
	for (int i = 0; i < 50; i++) {
		acc = mix(acc, i);
	}
	int local[32];
	for (int i = 0; i < 32; i++) {
		local[i] = acc + i;
	}
	int sum = 0;
	for (int i = 0; i < 32; i++) {
		sum += local[i];
	}
	checksum(sum);
	print(sum);
	putc('k');
}
`

func TestMachineMatchesOracle(t *testing.T) {
	for _, mc := range Configs() {
		m := New(mc)
		for _, lvl := range []compiler.Level{compiler.O0, compiler.O1, compiler.O2, compiler.O3} {
			for _, pers := range []compiler.Personality{compiler.GCC, compiler.ICC} {
				cfg := compiler.Config{Level: lvl, Personality: pers}
				img, prog := buildImage(t, cfg, loader.Options{Env: []string{"HOME=/root"}}, smokeSrc)
				want := irChecksum(t, prog)
				res, err := m.Run(img, 10_000_000)
				if err != nil {
					t.Fatalf("%s %v: %v", mc.Name, cfg, err)
				}
				if res.Checksum != want {
					t.Errorf("%s %v: checksum %d, want %d", mc.Name, cfg, res.Checksum, want)
				}
				if len(res.Output) != 2 || res.Output[1] != 'k' {
					t.Errorf("%s %v: output %v", mc.Name, cfg, res.Output)
				}
				if res.Counters.Instructions == 0 || res.Counters.Cycles == 0 {
					t.Errorf("%s %v: no cycles/instructions counted", mc.Name, cfg)
				}
			}
		}
	}
}

func TestOptimizationReducesCycles(t *testing.T) {
	m := New(Core2())
	run := func(lvl compiler.Level) uint64 {
		img, _ := buildImage(t, compiler.Config{Level: lvl}, loader.Options{}, smokeSrc)
		res, err := m.Run(img, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters.Cycles
	}
	o0, o2 := run(compiler.O0), run(compiler.O2)
	if o2 >= o0 {
		t.Errorf("O2 (%d cycles) not faster than O0 (%d cycles)", o2, o0)
	}
}

// TestEnvSizeChangesCyclesNotOutput is the package's statement of the
// paper's thesis at unit scale: a bigger environment must leave the
// program's output untouched while (almost always) changing its cycles.
func TestEnvSizeChangesCyclesNotOutput(t *testing.T) {
	m := New(PentiumIV())
	cfg := compiler.Config{Level: compiler.O2}
	var cycles []uint64
	var sums []uint64
	for _, envSize := range []uint64{8, 512, 1024, 2048, 4096} {
		img, _ := buildImage(t, cfg, loader.Options{Env: loader.SyntheticEnv(envSize)}, smokeSrc)
		res, err := m.Run(img, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		cycles = append(cycles, res.Counters.Cycles)
		sums = append(sums, res.Checksum)
	}
	for i := 1; i < len(sums); i++ {
		if sums[i] != sums[0] {
			t.Fatalf("environment size changed program output: %v", sums)
		}
	}
	distinct := map[uint64]bool{}
	for _, c := range cycles {
		distinct[c] = true
	}
	if len(distinct) < 2 {
		t.Logf("note: cycles identical across env sizes for this tiny program: %v", cycles)
	}
}

func TestDeterminism(t *testing.T) {
	m := New(Core2())
	cfg := compiler.Config{Level: compiler.O2}
	var prev *Result
	for i := 0; i < 3; i++ {
		img, _ := buildImage(t, cfg, loader.Options{Env: []string{"A=1"}}, smokeSrc)
		res, err := m.Run(img, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && (res.Counters.Cycles != prev.Counters.Cycles || res.Checksum != prev.Checksum) {
			t.Fatalf("run %d differs: %d vs %d cycles", i, res.Counters.Cycles, prev.Counters.Cycles)
		}
		prev = res
	}
}

func TestRuntimeFaults(t *testing.T) {
	cases := map[string]string{
		"div zero":  `int z; void main() { checksum(5 / z); }`,
		"wild load": `int a[2]; void main() { int* p = &a[0]; p += 9999999; checksum(*p); }`,
	}
	m := New(M5O3())
	for name, src := range cases {
		img, _ := buildImage(t, compiler.Config{Level: compiler.O0}, loader.Options{}, src)
		if _, err := m.Run(img, 1_000_000); err == nil {
			t.Errorf("%s: expected fault", name)
		}
	}
}

func TestInstructionBudget(t *testing.T) {
	src := `void main() { while (1) {} }`
	img, _ := buildImage(t, compiler.Config{}, loader.Options{}, src)
	m := New(Core2())
	if _, err := m.Run(img, 10_000); err == nil {
		t.Error("expected budget exhaustion")
	}
}

func TestCountersPopulated(t *testing.T) {
	img, _ := buildImage(t, compiler.Config{Level: compiler.O2}, loader.Options{}, smokeSrc)
	m := New(PentiumIV())
	res, err := m.Run(img, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.Loads == 0 || c.Stores == 0 || c.Branches == 0 || c.TakenBranches == 0 {
		t.Errorf("expected non-zero memory/branch counters: %+v", c)
	}
	if c.Syscalls != 4 { // checksum, print, putc, exit
		t.Errorf("syscalls = %d, want 4", c.Syscalls)
	}
	for _, name := range CounterNames() {
		if _, ok := c.Get(name); !ok {
			t.Errorf("counter %s not resolvable", name)
		}
	}
	if _, ok := c.Get("bogus"); ok {
		t.Error("bogus counter resolved")
	}
	if c.IPC() <= 0 || c.CPI() <= 0 {
		t.Error("IPC/CPI not positive")
	}
	if len(c.String()) == 0 {
		t.Error("String empty")
	}
}

func TestConfigByName(t *testing.T) {
	for _, name := range []string{"p4", "core2", "m5"} {
		if _, ok := ConfigByName(name); !ok {
			t.Errorf("ConfigByName(%s) failed", name)
		}
	}
	if _, ok := ConfigByName("vax"); ok {
		t.Error("ConfigByName(vax) should fail")
	}
	if len(Configs()) != 3 {
		t.Error("want 3 machine configs")
	}
}

func TestCyclesSyscall(t *testing.T) {
	src := `void main() { int c0 = cycles(); int c1 = cycles(); checksum(c1 >= c0); }`
	img, _ := buildImage(t, compiler.Config{Level: compiler.O0}, loader.Options{}, src)
	m := New(Core2())
	res, err := m.Run(img, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// checksum(1): cycles must be monotonic.
	want := mixOne(1)
	if res.Checksum != want {
		t.Errorf("cycle counter not monotonic")
	}
}

func mixOne(v uint64) uint64 {
	sum := v
	sum = 0 ^ v
	sum *= 1099511628211
	sum ^= sum >> 29
	return sum
}

func TestProfiling(t *testing.T) {
	img, _ := buildImage(t, compiler.Config{Level: compiler.O2}, loader.Options{}, smokeSrc)
	m := New(Core2())
	m.EnableProfiling(true)
	res, err := m.Run(img, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profile) == 0 {
		t.Fatal("empty profile")
	}
	names := map[string]bool{}
	var totalCycles, totalInstr uint64
	for _, f := range res.Profile {
		names[f.Name] = true
		totalCycles += f.Cycles
		totalInstr += f.Instructions
	}
	for _, want := range []string{"main", "mix", "_start"} {
		if !names[want] {
			t.Errorf("profile missing %s: %v", want, res.Profile)
		}
	}
	if totalInstr != res.Counters.Instructions {
		t.Errorf("profile instructions %d != total %d", totalInstr, res.Counters.Instructions)
	}
	if totalCycles != res.Counters.Cycles {
		t.Errorf("profile cycles %d != total %d", totalCycles, res.Counters.Cycles)
	}
	// Sorted descending by cycles.
	for i := 1; i < len(res.Profile); i++ {
		if res.Profile[i].Cycles > res.Profile[i-1].Cycles {
			t.Error("profile not sorted")
		}
	}
	if top := res.Profile.Top(1); len(top) != 1 {
		t.Error("Top wrong")
	}
	if !strings.Contains(res.Profile.String(), "function") {
		t.Error("profile table empty")
	}
	// Profiling runs on the reference stepper; it must not change any
	// measured value against an unprofiled run.
	img2, _ := buildImage(t, compiler.Config{Level: compiler.O2}, loader.Options{}, smokeSrc)
	res2, err := New(Core2()).Run(img2, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "profiling", res, res2)
}

// sameMeasurement fails t unless an instrumented run's counters, output and
// checksum equal those of an uninstrumented run of the same program.
func sameMeasurement(t *testing.T, what string, instrumented, plain *Result) {
	t.Helper()
	if instrumented.Counters != plain.Counters {
		t.Errorf("%s changed the counters:\n%+v\nwant %+v", what, instrumented.Counters, plain.Counters)
	}
	if instrumented.Checksum != plain.Checksum || !slices.Equal(instrumented.Output, plain.Output) {
		t.Errorf("%s changed the result: checksum %#x output %v, want %#x %v",
			what, instrumented.Checksum, instrumented.Output, plain.Checksum, plain.Output)
	}
}

func TestTracing(t *testing.T) {
	img, _ := buildImage(t, compiler.Config{Level: compiler.O2}, loader.Options{}, smokeSrc)
	m := New(Core2())
	ct := &CountingTracer{}
	m.SetTracer(ct)
	res, err := m.Run(img, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, c := range ct.Counts {
		total += c
	}
	if total != res.Counters.Instructions {
		t.Errorf("tracer saw %d instructions, machine counted %d", total, res.Counters.Instructions)
	}
	mix := ct.Mix()
	for _, key := range []string{"alu", "load", "store", "branch", "jump"} {
		if mix[key] == 0 {
			t.Errorf("instruction mix missing %s: %v", key, mix)
		}
	}
	// Tracing runs on the reference stepper; it must not change any
	// measured value.
	m.SetTracer(nil)
	img2, _ := buildImage(t, compiler.Config{Level: compiler.O2}, loader.Options{}, smokeSrc)
	res2, err := m.Run(img2, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "tracing", res, res2)
}

func TestWriterTracer(t *testing.T) {
	img, _ := buildImage(t, compiler.Config{Level: compiler.O0}, loader.Options{},
		`void main() { int x = 1; x += 2; checksum(x); }`)
	m := New(M5O3())
	var sb strings.Builder
	m.SetTracer(&WriterTracer{W: &sb, Limit: 50})
	if _, err := m.Run(img, 1_000_000); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Count(out, "\n")
	if lines == 0 || lines > 50 {
		t.Errorf("trace lines = %d, want 1..50", lines)
	}
	for _, want := range []string{"jal", "cyc=", "mem="} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}
