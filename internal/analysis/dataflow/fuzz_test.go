package dataflow_test

import (
	"reflect"
	"testing"
	"time"

	"biaslab/internal/analysis/dataflow"
	"biaslab/internal/compiler"
	"biaslab/internal/isa"
	"biaslab/internal/linker"
)

// fuzzSeedText compiles a small cmini program and returns the text and data
// segments of its linked image, giving the fuzzer structurally valid
// instruction streams to mutate from.
func fuzzSeedText(f *testing.F, src string) ([]byte, []byte) {
	f.Helper()
	objs, _, err := compiler.Compile([]compiler.Source{{Name: "seed", Text: src}}, compiler.Config{Level: compiler.O2})
	if err != nil {
		f.Fatal(err)
	}
	exe, err := linker.Link(objs, linker.Options{})
	if err != nil {
		f.Fatal(err)
	}
	return exe.Text, exe.Data
}

// fuzzSeedSources are small cmini programs covering straight-line code,
// recursion (the bounder's hard case) and a counted loop.
var fuzzSeedSources = []string{
	"void main() { checksum(7); }",
	`int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
		 void main() { checksum(fact(10)); }`,
	`int spin(int n) { int i; int s; s = 0;
		 for (i = 0; i < n; i++) { s = s + i; } return s; }
		 void main() { checksum(spin(100)); }`,
}

// FuzzAnalyze drives the CFG builder, abstract interpreter, jalr resolver
// and recursion bounder with arbitrary machine code. The property under
// test is freedom from panics and runaway behavior: for any executable that
// satisfies the linker's structural invariants (functions sorted, disjoint,
// inside the text segment), Analyze must either return an Info or an error
// value — whatever bytes the functions contain. Returned results must also
// satisfy the engine's own postconditions: Touched intervals sorted and
// disjoint, every function classified into an SCC. A second Analyze of the
// same executable must give a deeply equal result, so nothing the engine
// reports depends on iteration order.
func FuzzAnalyze(f *testing.F) {
	// Structured seeds: real compiler output, including recursion (the
	// bounder's hard case) and deliberately hostile control flow.
	for _, src := range fuzzSeedSources {
		text, data := fuzzSeedText(f, src)
		f.Add(text, data, uint16(0))
	}

	// A hand-built seed with the shapes compiled code never emits: an
	// indirect call through a register, a backward branch to pc 0, and a
	// store through an unknown pointer.
	var hand []byte
	for _, in := range []isa.Inst{
		{Op: isa.OpAddi, Rd: isa.SP, Rs1: isa.SP, Imm: -32},
		{Op: isa.OpAddi, Rd: isa.A0, Rs1: isa.R0, Imm: isa.SysCycles},
		{Op: isa.OpSys, Rs1: isa.A0},
		{Op: isa.OpStq, Rs1: isa.RV, Rs2: isa.RA, Imm: 0},
		{Op: isa.OpJalr, Rd: isa.RA, Rs1: isa.RV},
		{Op: isa.OpBeq, Rs1: isa.RV, Rs2: isa.R0, Imm: -6},
		{Op: isa.OpAddi, Rd: isa.SP, Rs1: isa.SP, Imm: 32},
		{Op: isa.OpJalr, Rd: isa.R0, Rs1: isa.RA},
	} {
		hand = isa.EncodeTo(hand, in)
	}
	f.Add(hand, []byte{0, 0, 0, 0, 0, 0, 0, 0}, uint16(16))

	// Degenerate seeds: no valid instruction anywhere, and a single word.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte(nil), uint16(0))
	f.Add([]byte{0, 0, 0, 0}, []byte(nil), uint16(0))

	f.Fuzz(func(t *testing.T, text, data []byte, split uint16) {
		// The interpreter's work budget scales with block count and its
		// per-visit cost with state size, so giant adversarial inputs are
		// slow rather than wrong; cap the text to keep every exec fast.
		if len(text) > 1<<11 || len(data) > 1<<9 {
			t.Skip("oversized input")
		}
		n := len(text) / 4 * 4
		if n == 0 {
			return
		}
		text = text[:n]

		// Assemble an executable obeying the invariants the linker
		// guarantees: split the text into one or two functions at an
		// instruction-aligned cut chosen by the fuzzer.
		const textBase = 0x100000
		cut := uint64(split) % uint64(n) / 4 * 4
		funcs := []linker.FuncRange{{Name: "main", Addr: textBase, Size: uint64(n)}}
		if cut != 0 {
			funcs = []linker.FuncRange{
				{Name: "main", Addr: textBase, Size: cut},
				{Name: "aux", Addr: textBase + cut, Size: uint64(n) - cut},
			}
		}
		syms := map[string]uint64{}
		for _, fr := range funcs {
			syms[fr.Name] = fr.Addr
		}
		dataBase := (textBase + uint64(n) + 7) &^ 7
		exe := &linker.Executable{
			Entry:    textBase,
			TextBase: textBase,
			Text:     text,
			DataBase: dataBase,
			Data:     data,
			BSSBase:  dataBase + uint64(len(data)),
			BSSSize:  64,
			Symbols:  syms,
			Funcs:    funcs,
		}

		t0 := time.Now()
		info, err := dataflow.Analyze(exe)
		if d := time.Since(t0); d > 2*time.Second {
			t.Fatalf("slow input: Analyze took %v", d)
		}
		again, errAgain := dataflow.Analyze(exe)
		if (err == nil) != (errAgain == nil) || (err != nil && err.Error() != errAgain.Error()) {
			t.Fatalf("second Analyze returned error %v, first %v", errAgain, err)
		}
		if !reflect.DeepEqual(info, again) {
			t.Fatal("second Analyze of the same executable differs from the first")
		}
		if err != nil {
			return
		}
		for _, fr := range funcs {
			fi := info.Funcs[fr.Addr]
			if fi == nil {
				t.Fatalf("no FuncInfo for %s", fr.Name)
			}
			if _, ok := info.SCCID[fr.Addr]; !ok {
				t.Fatalf("%s not assigned an SCC", fr.Name)
			}
			for i := 1; i < len(fi.Touched); i++ {
				if fi.Touched[i].Lo < fi.Touched[i-1].Hi {
					t.Fatalf("%s: Touched intervals overlap or unsorted: %v", fr.Name, fi.Touched)
				}
			}
			for _, c := range fi.Calls {
				if c.PC < fr.Addr || c.PC >= fr.Addr+fr.Size {
					t.Fatalf("%s: call site %#x outside function", fr.Name, c.PC)
				}
			}
		}
	})
}
