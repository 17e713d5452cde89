package dataflow_test

import (
	"reflect"
	"strings"
	"testing"

	"biaslab/internal/analysis/dataflow"
	"biaslab/internal/compiler"
	"biaslab/internal/isa"
	"biaslab/internal/linker"
	"biaslab/internal/obj"
)

// jalrTableObjects hand-assembles a two-object program cmini cannot write:
// main in the first object masks a runtime value to {0, 8}, loads a table
// entry and calls through it; the table and its two callees live in the
// second object, so a pad moves caller and callees by different amounts.
func jalrTableObjects() []*obj.Object {
	enc := func(code []isa.Inst) []byte {
		var text []byte
		for _, in := range code {
			text = isa.EncodeTo(text, in)
		}
		return text
	}
	caller := &obj.Object{Name: "caller", Text: enc([]isa.Inst{
		{Op: isa.OpAddi, Rd: isa.SP, Rs1: isa.SP, Imm: -16},
		{Op: isa.OpStq, Rs2: isa.RA, Rs1: isa.SP, Imm: 8},
		{Op: isa.OpAddi, Rd: isa.A0, Rs1: isa.R0, Imm: isa.SysCycles},
		{Op: isa.OpSys, Rd: isa.R0, Rs1: isa.A0},
		{Op: isa.OpAndi, Rd: isa.T0, Rs1: isa.RV, Imm: 8},
		{Op: isa.OpLui, Rd: isa.AT, Imm: 0},
		{Op: isa.OpOri, Rd: isa.AT, Rs1: isa.AT, Imm: 0},
		{Op: isa.OpAdd, Rd: isa.AT, Rs1: isa.AT, Rs2: isa.T0},
		{Op: isa.OpLdq, Rd: isa.T1, Rs1: isa.AT},
		{Op: isa.OpJalr, Rd: isa.RA, Rs1: isa.T1},
		{Op: isa.OpLdq, Rd: isa.RA, Rs1: isa.SP, Imm: 8},
		{Op: isa.OpAddi, Rd: isa.SP, Rs1: isa.SP, Imm: 16},
		{Op: isa.OpJalr, Rd: isa.R0, Rs1: isa.RA},
	})}
	caller.Symbols = []obj.Symbol{{Name: "main", Kind: obj.SymFunc, Section: obj.SecText, Size: uint64(len(caller.Text)), Align: 4}}
	caller.Relocs = []obj.Reloc{
		{Kind: obj.RelocHi16, Section: obj.SecText, Offset: 5 * 4, Sym: "table"},
		{Kind: obj.RelocLo16, Section: obj.SecText, Offset: 6 * 4, Sym: "table"},
	}
	ret := []isa.Inst{{Op: isa.OpJalr, Rd: isa.R0, Rs1: isa.RA}}
	callees := &obj.Object{Name: "callees", Text: enc(append(append([]isa.Inst{}, ret...), ret...)), Data: make([]byte, 16)}
	callees.Symbols = []obj.Symbol{
		{Name: "shallow", Kind: obj.SymFunc, Section: obj.SecText, Offset: 0, Size: 4, Align: 4},
		{Name: "deep", Kind: obj.SymFunc, Section: obj.SecText, Offset: 4, Size: 4, Align: 4},
		{Name: "table", Kind: obj.SymData, Section: obj.SecData, Size: 16, Align: 8},
	}
	callees.Relocs = []obj.Reloc{
		{Kind: obj.RelocAbs64, Section: obj.SecData, Offset: 0, Sym: "shallow"},
		{Kind: obj.RelocAbs64, Section: obj.SecData, Offset: 8, Sym: "deep"},
	}
	return []*obj.Object{caller, callees}
}

// FuzzRelocate checks the relocation contract on arbitrary programs: for
// two layouts of one program (a pad and a text base chosen by the fuzzer),
// Relocate(Analyze(a), a, b) either refuses or returns exactly Analyze(b).
// The program is cmini source (units separated by NUL bytes, one object
// each) or, when asm is set, the hand-assembled jalr-table program; patch
// then overwrites the start of the first object's text, so relocations can
// land on instructions that do not consume an address.
func FuzzRelocate(f *testing.F) {
	for _, src := range fuzzSeedSources {
		f.Add(false, src, []byte(nil), uint16(4), uint16(0))
		f.Add(false, src+"\x00int g[4]; int get(int i) { return g[i & 3]; }", []byte(nil), uint16(64), uint16(16))
	}
	f.Add(true, "", []byte(nil), uint16(4), uint16(0))
	f.Add(true, "", []byte(nil), uint16(4096), uint16(8))
	f.Add(true, "", []byte{0, 0, 0, 0}, uint16(12), uint16(0))

	f.Fuzz(func(t *testing.T, asm bool, src string, patch []byte, pad, base uint16) {
		if len(src) > 1<<11 || len(patch) > 1<<9 {
			t.Skip("oversized input")
		}
		var objs []*obj.Object
		if asm {
			objs = jalrTableObjects()
		} else {
			var srcs []compiler.Source
			for i, unit := range strings.Split(src, "\x00") {
				srcs = append(srcs, compiler.Source{Name: string(rune('a'+i%26)) + ".cm", Text: unit})
			}
			var err error
			if objs, _, err = compiler.Compile(srcs, compiler.Config{Level: compiler.O2}); err != nil {
				return
			}
		}
		if len(patch) > 0 && len(objs) > 0 {
			first := *objs[0]
			first.Text = append([]byte(nil), first.Text...)
			copy(first.Text, patch)
			objs = append([]*obj.Object{&first}, objs[1:]...)
		}
		a, err := linker.Link(objs, linker.Options{})
		if err != nil {
			return
		}
		b, err := linker.Link(objs, linker.Options{PadObjects: uint64(pad), TextBase: linker.DefaultTextBase + uint64(base)})
		if err != nil {
			return
		}
		ia, err := dataflow.Analyze(a)
		if err != nil {
			return
		}
		moved, ok := dataflow.Relocate(ia, a, b)
		if !ok {
			return
		}
		ib, err := dataflow.Analyze(b)
		if err != nil {
			t.Fatalf("Relocate accepted a layout Analyze rejects: %v", err)
		}
		if !reflect.DeepEqual(moved, ib) {
			t.Fatal("relocated analysis differs from a fresh analysis of the moved layout")
		}
	})
}

// TestRelocateJalrTable: the table call resolves through data words the
// linker patched, in a layout where caller and callees move by different
// amounts, and the analysis still relocates exactly.
func TestRelocateJalrTable(t *testing.T) {
	objs := jalrTableObjects()
	a, err := linker.Link(objs, linker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ia, err := dataflow.Analyze(a)
	if err != nil {
		t.Fatal(err)
	}
	if why := ia.PositionDependent(); why != "" {
		t.Fatalf("jalr table marked position-dependent: %s", why)
	}
	for _, pad := range []uint64{4, 12, 64, 4096} {
		b, err := linker.Link(objs, linker.Options{PadObjects: pad})
		if err != nil {
			t.Fatal(err)
		}
		moved, ok := dataflow.Relocate(ia, a, b)
		if !ok {
			t.Fatalf("pad %d: Relocate refused", pad)
		}
		ib, err := dataflow.Analyze(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(moved, ib) {
			t.Fatalf("pad %d: relocated analysis differs from a fresh one", pad)
		}
		main := moved.Funcs[b.Symbols["main"]]
		if main == nil || len(main.Calls) != 2 || len(main.UnresolvedJalr) != 0 {
			t.Fatalf("pad %d: table call not resolved to both callees", pad)
		}
	}
}
