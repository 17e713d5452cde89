package linker

import (
	"strings"
	"testing"

	"biaslab/internal/compiler"
	"biaslab/internal/obj"
)

func compileObjs(t *testing.T, cfg compiler.Config, srcs ...string) []*obj.Object {
	t.Helper()
	sources := make([]compiler.Source, len(srcs))
	for i, s := range srcs {
		sources[i] = compiler.Source{Name: "u" + string(rune('0'+i)) + ".cm", Text: s}
	}
	objs, _, err := compiler.Compile(sources, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return objs
}

const mainSrc = `void main() { helper(); checksum(1); }`
const helperSrc = `int hstate; void helper() { hstate = 7; }`

func TestLinkBasics(t *testing.T) {
	objs := compileObjs(t, compiler.Config{Level: compiler.O2}, mainSrc, helperSrc)
	exe, err := Link(objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exe.Entry != exe.Symbols["_start"] {
		t.Error("entry is not _start")
	}
	for _, sym := range []string{"_start", "main", "helper", "hstate"} {
		if _, ok := exe.Symbols[sym]; !ok {
			t.Errorf("missing symbol %s", sym)
		}
	}
	if exe.Symbols["main"] < exe.TextBase {
		t.Error("main below text base")
	}
	if exe.DataBase%PageSize != 0 || exe.BSSBase%PageSize != 0 {
		t.Error("data/bss not page aligned")
	}
	// hstate is zero-initialized → bss.
	if a := exe.Symbols["hstate"]; a < exe.BSSBase || a >= exe.BSSBase+exe.BSSSize {
		t.Errorf("hstate at %#x outside bss [%#x,%#x)", a, exe.BSSBase, exe.BSSBase+exe.BSSSize)
	}
	if f := exe.FuncAt(exe.Symbols["main"]); f == nil || f.Name != "main" {
		t.Error("FuncAt(main) wrong")
	}
	if f := exe.FuncAt(exe.TextBase - 4); f != nil {
		t.Error("FuncAt below text should be nil")
	}
}

func TestLinkOrderMovesFunctions(t *testing.T) {
	objs := compileObjs(t, compiler.Config{Level: compiler.O2}, mainSrc, helperSrc)
	ab, err := Link([]*obj.Object{objs[0], objs[1]}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Link([]*obj.Object{objs[1], objs[0]}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ab.Symbols["helper"] == ba.Symbols["helper"] {
		t.Error("link order did not move helper")
	}
	// Both must still resolve and keep functions inside text.
	for _, exe := range []*Executable{ab, ba} {
		end := exe.TextBase + uint64(len(exe.Text))
		for _, f := range exe.Funcs {
			if f.Addr < exe.TextBase || f.Addr+f.Size > end {
				t.Errorf("func %s out of text range", f.Name)
			}
		}
	}
}

func TestLinkDuplicateSymbol(t *testing.T) {
	objs := compileObjs(t, compiler.Config{}, mainSrc, helperSrc)
	dup := compileObjs(t, compiler.Config{}, `void main() {}`)
	_, err := Link([]*obj.Object{objs[0], objs[1], dup[0]}, Options{})
	if err == nil || !strings.Contains(err.Error(), "defined in both") {
		t.Errorf("duplicate symbol not detected: %v", err)
	}
}

func TestLinkUndefinedSymbol(t *testing.T) {
	// Object calling a function that exists at compile time but is then
	// dropped from the link line.
	objs := compileObjs(t, compiler.Config{}, mainSrc, helperSrc)
	_, err := Link([]*obj.Object{objs[0]}, Options{})
	if err == nil || !strings.Contains(err.Error(), "undefined symbol") {
		t.Errorf("undefined symbol not detected: %v", err)
	}
}

func TestLinkNoMain(t *testing.T) {
	objs := compileObjs(t, compiler.Config{}, mainSrc, helperSrc)
	_, err := Link([]*obj.Object{objs[1]}, Options{})
	if err == nil {
		t.Error("link without main should fail")
	}
}

func TestAlignmentHonoured(t *testing.T) {
	objs := compileObjs(t, compiler.Config{Level: compiler.O3, Personality: compiler.ICC}, mainSrc, helperSrc)
	exe, err := Link(objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range exe.Funcs {
		if f.Name == "_start" {
			continue
		}
		if f.Addr%16 != 0 {
			t.Errorf("icc -O3 function %s at %#x not 16-aligned", f.Name, f.Addr)
		}
	}
}

func TestPadObjectsShiftsLayout(t *testing.T) {
	objs := compileObjs(t, compiler.Config{Level: compiler.O2}, mainSrc, helperSrc)
	a, _ := Link(objs, Options{})
	b, err := Link(objs, Options{PadObjects: 64})
	if err != nil {
		t.Fatal(err)
	}
	if a.Symbols["helper"] == b.Symbols["helper"] {
		t.Error("padding did not shift layout")
	}
}

// TestLinkRecordsPlacements: the placements an image records say exactly
// where each object's symbols went, and relinks of one program place the
// very same objects, crt0 included.
func TestLinkRecordsPlacements(t *testing.T) {
	objs := compileObjs(t, compiler.Config{Level: compiler.O2}, mainSrc, helperSrc)
	a, err := Link(objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Link(objs, Options{PadObjects: 64, TextBase: DefaultTextBase + 4096})
	if err != nil {
		t.Fatal(err)
	}
	for _, exe := range []*Executable{a, b} {
		if len(exe.Placements) != len(objs)+1 {
			t.Fatalf("%d placements for %d objects plus crt0", len(exe.Placements), len(objs))
		}
		for _, p := range exe.Placements {
			for _, s := range p.Object.Symbols {
				base := map[obj.SectionKind]uint64{obj.SecText: p.Text, obj.SecData: p.Data, obj.SecBSS: p.BSS}[s.Section]
				if exe.Symbols[s.Name] != base+s.Offset {
					t.Errorf("%s at %#x, placement says %#x", s.Name, exe.Symbols[s.Name], base+s.Offset)
				}
			}
		}
	}
	for i := range a.Placements {
		if a.Placements[i].Object != b.Placements[i].Object {
			t.Errorf("placement %d: relinks place different objects", i)
		}
	}
}
