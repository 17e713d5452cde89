package dataflow

import (
	"encoding/binary"
	"testing"

	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/isa"
	"biaslab/internal/linker"
	"biaslab/internal/obj"
)

// TestProvenanceMatchesImage: every relocation landing the interpreter
// derives from an image's placements names a word the linker really
// patched with that target, in every layout of a pad and base family.
func TestProvenanceMatchesImage(t *testing.T) {
	b, ok := bench.ByName("mcf")
	if !ok {
		t.Fatal("mcf not registered")
	}
	objs, _, err := compiler.Compile(b.Sources(bench.SizeTest), compiler.Config{Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []linker.Options{{}, {PadObjects: 12}, {TextBase: linker.DefaultTextBase + 4100}} {
		exe, err := linker.Link(objs, opts)
		if err != nil {
			t.Fatal(err)
		}
		pv := newProvenance(exe)
		if len(pv.landings) == 0 {
			t.Fatal("no relocation landings found")
		}
		for _, l := range pv.landings {
			var got uint64
			switch l.kind {
			case obj.RelocAbs64:
				got = binary.LittleEndian.Uint64(exe.Data[l.addr-exe.DataBase:])
			case obj.RelocHi16:
				got = uint64(uint16(isa.DecodeBytes(exe.Text[l.addr-exe.TextBase:]).Imm)) << 16
				l.target &^= 0xffff
			case obj.RelocLo16:
				got = uint64(uint16(isa.DecodeBytes(exe.Text[l.addr-exe.TextBase:]).Imm))
				l.target &= 0xffff
			case obj.RelocJal26:
				got = uint64(isa.DecodeBytes(exe.Text[l.addr-exe.TextBase:]).Imm) * isa.InstSize
			}
			if got != l.target {
				t.Errorf("%+v: %v landing at %#x holds %#x, want %#x", opts, l.kind, l.addr, got, l.target)
			}
		}
	}
}
