package loader

import (
	"testing"
	"testing/quick"

	"biaslab/internal/compiler"
	"biaslab/internal/linker"
)

func buildExe(t testing.TB) *linker.Executable {
	t.Helper()
	objs, _, err := compiler.Compile([]compiler.Source{
		{Name: "m.cm", Text: `int g = 5; void main() { checksum(g); }`},
	}, compiler.Config{Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	exe, err := linker.Link(objs, linker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

func TestEnvBytes(t *testing.T) {
	if got := EnvBytes(nil); got != 8 {
		t.Errorf("empty env = %d bytes, want 8", got)
	}
	// "A=1" costs 4 bytes of string + 8 of pointer; plus the null slot.
	if got := EnvBytes([]string{"A=1"}); got != 8+4+8 {
		t.Errorf("EnvBytes(A=1) = %d, want 20", got)
	}
}

func TestSyntheticEnvExact(t *testing.T) {
	for _, total := range []uint64{8, 17, 18, 32, 64, 100, 129, 256, 1000, 4096} {
		env := SyntheticEnv(total)
		if got := EnvBytes(env); got != total {
			t.Errorf("SyntheticEnv(%d) produced %d bytes", total, got)
		}
	}
	// Unrepresentable totals fall back to empty.
	for _, total := range []uint64{0, 7, 9, 16} {
		if env := SyntheticEnv(total); len(env) != 0 {
			t.Errorf("SyntheticEnv(%d) should be empty, got %v", total, env)
		}
	}
}

func TestSyntheticEnvProperty(t *testing.T) {
	f := func(n uint16) bool {
		total := uint64(n)%8192 + 17
		env := SyntheticEnv(total)
		return EnvBytes(env) == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLoadPlacesSegments(t *testing.T) {
	exe := buildExe(t)
	img, err := Load(exe, Options{Env: []string{"PATH=/bin"}, Args: []string{"prog"}})
	if err != nil {
		t.Fatal(err)
	}
	// Text is where the executable says.
	for i, b := range exe.Text {
		if img.Mem[exe.TextBase+uint64(i)] != b {
			t.Fatalf("text byte %d mismatch", i)
		}
	}
	for i, b := range exe.Data {
		if img.Mem[exe.DataBase+uint64(i)] != b {
			t.Fatalf("data byte %d mismatch", i)
		}
	}
	if img.Entry != exe.Entry {
		t.Error("entry mismatch")
	}
	if img.SP%8 != 0 {
		t.Errorf("sp %#x not 8-aligned", img.SP)
	}
	if img.SP >= DefaultStackTop {
		t.Error("sp not below stack top")
	}
}

// TestEnvSizeShiftsSP is the package's load-bearing test: growing the
// environment must lower the initial stack pointer by a corresponding
// amount, because that displacement is the entire env-size bias mechanism.
func TestEnvSizeShiftsSP(t *testing.T) {
	exe := buildExe(t)
	spFor := func(envTotal uint64) uint64 {
		img, err := Load(exe, Options{Env: SyntheticEnv(envTotal)})
		if err != nil {
			t.Fatal(err)
		}
		return img.SP
	}
	sp0 := spFor(8)
	sp1 := spFor(8 + 64)
	sp2 := spFor(8 + 128)
	if sp1 >= sp0 || sp2 >= sp1 {
		t.Errorf("sp did not decrease with env size: %#x %#x %#x", sp0, sp1, sp2)
	}
	if diff := sp0 - sp1; diff < 56 || diff > 72 {
		t.Errorf("64 extra env bytes moved sp by %d; expected ≈64", diff)
	}
}

func TestStackShiftIntervention(t *testing.T) {
	exe := buildExe(t)
	base, err := Load(exe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := Load(exe, Options{StackShift: 48})
	if err != nil {
		t.Fatal(err)
	}
	if base.SP-shifted.SP != 48 {
		t.Errorf("StackShift moved sp by %d, want 48", base.SP-shifted.SP)
	}
}

func TestEnvStringsReadable(t *testing.T) {
	exe := buildExe(t)
	img, err := Load(exe, Options{Env: []string{"HOME=/root", "X=1"}})
	if err != nil {
		t.Fatal(err)
	}
	// The last-placed env string starts at EnvBase.
	got := ""
	for a := img.EnvBase; img.Mem[a] != 0; a++ {
		got += string(rune(img.Mem[a]))
	}
	if got != "X=1" {
		t.Errorf("env string at EnvBase = %q, want X=1", got)
	}
}

// TestInitialSPMatchesLoad pins the static SP predictor to the real loader:
// for every combination of environment size, argument vector and stack
// shift, InitialSP must equal the SP of an actual Load. The bias oracle's
// address arithmetic is built entirely on this equality.
func TestInitialSPMatchesLoad(t *testing.T) {
	exe := buildExe(t)
	envs := [][]string{
		nil,
		{"A=1"},
		{"PATH=/usr/bin", "HOME=/root"},
		SyntheticEnv(512),
		SyntheticEnv(4096),
	}
	argvs := [][]string{nil, {"prog"}, {"a-much-longer-name", "arg1", "x"}}
	shifts := []uint64{0, 1, 7, 8, 48, 333}
	for _, env := range envs {
		for _, args := range argvs {
			for _, shift := range shifts {
				opts := Options{Env: env, Args: args, StackShift: shift}
				img, err := Load(exe, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := InitialSP(opts); got != img.SP {
					t.Fatalf("InitialSP(env %d bytes, %d args, shift %d) = %#x, Load produced %#x",
						EnvBytes(env), len(args), shift, got, img.SP)
				}
				img.Release()
			}
		}
	}
	// Non-default geometry follows the same arithmetic.
	opts := Options{MemSize: 8 << 20, StackTop: 8<<20 - 128, Env: SyntheticEnv(100), Args: []string{"p"}}
	img, err := Load(exe, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := InitialSP(opts); got != img.SP {
		t.Fatalf("InitialSP with custom geometry = %#x, Load produced %#x", got, img.SP)
	}
}

func TestLoadErrors(t *testing.T) {
	exe := buildExe(t)
	if _, err := Load(exe, Options{MemSize: 1 << 12}); err == nil {
		t.Error("tiny memory should fail")
	}
	if _, err := Load(exe, Options{StackTop: 1 << 63, MemSize: DefaultMemSize}); err == nil {
		t.Error("stack top beyond memory should fail")
	}
}

// coRunnerGeometry is a non-default image size: the 32 MiB geometry a
// co-runner is loaded into.
var coRunnerGeometry = Options{MemSize: 32 << 20, StackTop: 32<<20 - 64}

// TestReleaseRecyclesZeroedBuffer locks in the pooled-buffer contract: a
// Load that reuses a released buffer must observe exactly the state a fresh
// allocation would — any residue from the prior run would break the repo's
// bit-identical determinism. It holds for every geometry, not only the
// default one.
func TestReleaseRecyclesZeroedBuffer(t *testing.T) {
	exe := buildExe(t)
	for _, geom := range []Options{{}, coRunnerGeometry} {
		opts := geom
		opts.Env = []string{"A=1"}
		opts.Args = []string{"x"}
		img, err := Load(exe, opts)
		if err != nil {
			t.Fatal(err)
		}
		pristine := append([]byte(nil), img.Mem...)
		// Scribble all over the address space, as a run's stores would.
		for i := 0; i < len(img.Mem); i += 4097 {
			img.Mem[i] ^= 0xa5
		}
		img.Release()
		if img.Mem != nil {
			t.Fatal("Release must detach the buffer")
		}
		again, err := Load(exe, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Mem) != len(pristine) {
			t.Fatalf("reloaded image size %d != %d", len(again.Mem), len(pristine))
		}
		for i := range pristine {
			if again.Mem[i] != pristine[i] {
				t.Fatalf("mem size %d: byte %#x differs after buffer recycling: %#x vs %#x",
					len(pristine), i, again.Mem[i], pristine[i])
			}
		}
		again.Release()
	}
}

// TestPoolKeepsSizesApart: a released buffer only ever comes back to a
// Load of its own size. A default Load after releasing only co-runner
// buffers (and the reverse) must still get a buffer of the size it asked
// for.
func TestPoolKeepsSizesApart(t *testing.T) {
	exe := buildExe(t)
	geoms := []Options{{}, coRunnerGeometry}
	for _, released := range geoms {
		for i := 0; i < 4; i++ {
			img, err := Load(exe, released)
			if err != nil {
				t.Fatal(err)
			}
			img.Release()
		}
		for _, want := range geoms {
			img, err := Load(exe, want)
			if err != nil {
				t.Fatal(err)
			}
			wantSize := want.MemSize
			if wantSize == 0 {
				wantSize = DefaultMemSize
			}
			if got := uint64(len(img.Mem)); got != wantSize {
				t.Errorf("Load of a %d-byte image got a %d-byte buffer", wantSize, got)
			}
			img.Release()
		}
	}
}

// BenchmarkLoad measures one load followed by its release, for the solo
// and the co-runner geometry. Once the pool is warm the buffer is
// recycled, so -benchmem shows only the small stack-layout allocations.
func BenchmarkLoad(b *testing.B) {
	exe := buildExe(b)
	for _, bc := range []struct {
		name string
		opts Options
	}{{"default", Options{}}, {"32MiB", coRunnerGeometry}} {
		b.Run(bc.name, func(b *testing.B) {
			opts := bc.opts
			opts.Env = SyntheticEnv(4096)
			opts.Args = []string{"bench"}
			warm, err := Load(exe, opts)
			if err != nil {
				b.Fatal(err)
			}
			warm.Release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				img, err := Load(exe, opts)
				if err != nil {
					b.Fatal(err)
				}
				img.Release()
			}
		})
	}
}
