package analysis_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"biaslab/internal/analysis"
	"biaslab/internal/analysis/dataflow"
	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/core"
	"biaslab/internal/isa"
	"biaslab/internal/linker"
	"biaslab/internal/obj"
)

// TestNewChannelLayoutsMatchesPerLayout is the differential gate of the
// relocating planner: for every benchmark at O2 and O3, size test, and every
// value of the default pad and base grids, the batch NewChannelLayouts
// builds must deeply equal NewChannelLayout run on each layout alone — Info
// (unexported fields included) and footprint. It also reports which
// families fell back to a full analysis per layout, and why.
func TestNewChannelLayoutsMatchesPerLayout(t *testing.T) {
	families := []struct {
		name   string
		values []uint64
		opts   func(uint64) linker.Options
	}{
		{"pad", core.DefaultPadSizes(), func(v uint64) linker.Options { return linker.Options{PadObjects: v} }},
		{"base", core.DefaultTextBases(), func(v uint64) linker.Options { return linker.Options{TextBase: v} }},
	}
	var mu sync.Mutex
	fellBack := map[string]string{}
	t.Run("families", func(t *testing.T) {
		for _, b := range bench.All() {
			b := b
			t.Run(b.Name, func(t *testing.T) {
				t.Parallel()
				for _, lvl := range []compiler.Level{compiler.O2, compiler.O3} {
					objs, prog, err := compiler.Compile(b.Sources(bench.SizeTest), core.DefaultSetup("core2").WithLevel(lvl).Compiler)
					if err != nil {
						t.Fatal(err)
					}
					for _, fam := range families {
						exes := make([]*linker.Executable, len(fam.values))
						for i, v := range fam.values {
							if exes[i], err = linker.Link(objs, fam.opts(v)); err != nil {
								t.Fatal(err)
							}
						}
						got, err := analysis.NewChannelLayouts(fam.values, exes, prog)
						if err != nil {
							t.Fatal(err)
						}
						for i, v := range fam.values {
							want, err := analysis.NewChannelLayout(v, exes[i], prog)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got[i], want) {
								t.Fatalf("%s/%s: layout %d differs from a per-layout analysis", lvl, fam.name, v)
							}
						}
						refused := 0
						for i := 1; i < len(exes); i++ {
							if _, ok := dataflow.Relocate(got[0].Info, exes[0], exes[i]); !ok {
								refused++
							}
						}
						if refused > 0 {
							why := got[0].Info.PositionDependent()
							if why == "" {
								why = "layout outside the recorded slack"
							}
							mu.Lock()
							fellBack[b.Name+"/"+lvl.String()+"/"+fam.name] = fmt.Sprintf("%d of %d layouts: %s", refused, len(exes)-1, why)
							mu.Unlock()
						}
					}
				}
			})
		}
	})
	t.Logf("%d of %d families fell back to per-layout analysis", len(fellBack), 2*2*len(bench.All()))
	for fam, why := range fellBack {
		t.Logf("  %s: %s", fam, why)
	}
}

// TestRelocateRefusesOtherPrograms: a layout is relocatable only from a
// relink of the same objects, with function order preserved.
func TestRelocateRefusesOtherPrograms(t *testing.T) {
	b, _ := bench.ByName("mcf")
	objs, _, err := compiler.Compile(b.Sources(bench.SizeTest), compiler.Config{Level: compiler.O2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := linker.Link(objs, linker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := dataflow.Analyze(a)
	if err != nil {
		t.Fatal(err)
	}
	reordered, err := linker.Link(append([]*obj.Object{objs[len(objs)-1]}, objs[:len(objs)-1]...), linker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dataflow.Relocate(info, a, reordered); ok {
		t.Error("Relocate accepted a link-order permutation")
	}
	other, _, err := compiler.Compile(b.Sources(bench.SizeTest), compiler.Config{Level: compiler.O3})
	if err != nil {
		t.Fatal(err)
	}
	o3, err := linker.Link(other, linker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dataflow.Relocate(info, a, o3); ok {
		t.Error("Relocate accepted a different compilation")
	}
}

// asmObject assembles functions into one object. relocs name the function
// and instruction index each relocation patches; data, when non-nil,
// becomes the object's data section, defined as symbol "<name>data".
func asmObject(name string, funcs []asmFunc, relocs map[[2]int]obj.Reloc, data []byte) *obj.Object {
	o := &obj.Object{Name: name, Data: data}
	for fi, f := range funcs {
		start := uint64(len(o.Text))
		for i, in := range f.code {
			if r, ok := relocs[[2]int{fi, i}]; ok {
				r.Section, r.Offset = obj.SecText, start+uint64(i*isa.InstSize)
				o.Relocs = append(o.Relocs, r)
			}
			o.Text = isa.EncodeTo(o.Text, in)
		}
		o.Symbols = append(o.Symbols, obj.Symbol{Name: f.name, Kind: obj.SymFunc, Section: obj.SecText,
			Offset: start, Size: uint64(len(o.Text)) - start, Align: 4})
	}
	if data != nil {
		o.Symbols = append(o.Symbols, obj.Symbol{Name: name + "data", Kind: obj.SymData, Section: obj.SecData, Size: uint64(len(data)), Align: 8})
	}
	return o
}

// addrOf loads the address of sym into r with a hi16/lo16 pair starting at
// instruction index at of function fn; it returns the two instructions and
// their relocations.
func addrOf(fn, at int, r isa.Reg, sym string, relocs map[[2]int]obj.Reloc) []isa.Inst {
	relocs[[2]int{fn, at}] = obj.Reloc{Kind: obj.RelocHi16, Sym: sym}
	relocs[[2]int{fn, at + 1}] = obj.Reloc{Kind: obj.RelocLo16, Sym: sym}
	return []isa.Inst{{Op: isa.OpLui, Rd: r}, {Op: isa.OpOri, Rd: r, Rs1: r}}
}

var ret = isa.Inst{Op: isa.OpJalr, Rd: isa.R0, Rs1: isa.RA}

// jalrTableObjects returns the objects of the footprint suite's jalr-table
// fixture, crt0 excluded, so they can be relinked at other layouts.
func jalrTableObjects(t *testing.T) []*obj.Object {
	var objs []*obj.Object
	for _, p := range buildJalrTable(t).Placements[1:] {
		objs = append(objs, p.Object)
	}
	return objs
}

// TestPositionDependenceFixtures pins the relocation frontier: each fixture
// computes with an address in a way that does not move with the layout,
// so its analysis must be marked position-dependent, and the batch planner
// must still return exactly the per-layout analyses over a pad grid. The
// jalr table, whose addresses only move, must stay relocatable.
func TestPositionDependenceFixtures(t *testing.T) {
	fixtures := []struct {
		name string
		objs func(*testing.T) []*obj.Object
		want string // substring of the position-dependence reason; "" = relocatable
	}{
		{"masked address", func(*testing.T) []*obj.Object {
			relocs := map[[2]int]obj.Reloc{}
			code := append(addrOf(0, 0, isa.AT, "gdata", relocs),
				isa.Inst{Op: isa.OpAndi, Rd: isa.T0, Rs1: isa.AT, Imm: 0xff}, ret)
			return []*obj.Object{asmObject("g", []asmFunc{{"main", code}}, relocs, make([]byte, 16))}
		}, "andi"},
		{"address compared with a constant", func(*testing.T) []*obj.Object {
			relocs := map[[2]int]obj.Reloc{}
			code := append(addrOf(0, 0, isa.AT, "gdata", relocs),
				isa.Inst{Op: isa.OpAddi, Rd: isa.T0, Rs1: isa.R0, Imm: 100},
				isa.Inst{Op: isa.OpBeq, Rs1: isa.AT, Rs2: isa.T0, Imm: 1},
				isa.Inst{Op: isa.OpNop}, ret)
			return []*obj.Object{asmObject("g", []asmFunc{{"main", code}}, relocs, make([]byte, 16))}
		}, "compared"},
		{"absolute data address dereferenced", func(*testing.T) []*obj.Object {
			// 0x101000 is the data base of this one-page image, formed
			// without a relocation: another layout puts data elsewhere.
			code := []isa.Inst{
				{Op: isa.OpLui, Rd: isa.AT, Imm: 0x10},
				{Op: isa.OpOri, Rd: isa.AT, Rs1: isa.AT, Imm: 0x1000},
				{Op: isa.OpLdq, Rd: isa.T0, Rs1: isa.AT}, ret,
			}
			return []*obj.Object{asmObject("g", []asmFunc{{"main", code}}, nil, make([]byte, 16))}
		}, "absolute"},
		{"addresses of two objects subtracted", func(*testing.T) []*obj.Object {
			relocs := map[[2]int]obj.Reloc{}
			code := append(addrOf(0, 0, isa.T0, "far", relocs), addrOf(0, 2, isa.T1, "main", relocs)...)
			code = append(code, isa.Inst{Op: isa.OpSub, Rd: isa.T2, Rs1: isa.T0, Rs2: isa.T1}, ret)
			return []*obj.Object{
				asmObject("near", []asmFunc{{"main", code}}, relocs, nil),
				asmObject("other", []asmFunc{{"far", []isa.Inst{ret}}}, nil, nil),
			}
		}, "subtracted"},
		{"jalr table", jalrTableObjects, ""},
	}
	pads := []uint64{0, 4, 12, 64, 4096}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			objs := fx.objs(t)
			exes := make([]*linker.Executable, len(pads))
			for i, pad := range pads {
				var err error
				if exes[i], err = linker.Link(objs, linker.Options{PadObjects: pad}); err != nil {
					t.Fatal(err)
				}
			}
			info, err := dataflow.Analyze(exes[0])
			if err != nil {
				t.Fatal(err)
			}
			why := info.PositionDependent()
			switch {
			case fx.want == "" && why != "":
				t.Errorf("marked position-dependent: %s", why)
			case fx.want != "" && !strings.Contains(why, fx.want):
				t.Errorf("position dependence %q, want a reason mentioning %q", why, fx.want)
			}
			got, err := analysis.NewChannelLayouts(pads, exes, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, pad := range pads {
				want, err := analysis.NewChannelLayout(pad, exes[i], nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Errorf("pad %d: batch layout differs from a per-layout analysis", pad)
				}
			}
		})
	}
}
