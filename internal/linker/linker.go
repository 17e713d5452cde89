// Package linker combines relocatable objects into an executable image.
//
// The linker is the first of the two bias channels the paper studies: it
// lays out each object's text and data **in the order the objects are given
// on the command line**, so permuting the link order moves every function
// and datum, changing I-cache set mappings, branch-target-buffer indices and
// fetch alignment without changing a single instruction.
package linker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"biaslab/internal/isa"
	"biaslab/internal/obj"
)

// Sentinel errors for the linker's failure classes; every failure returned
// by Link wraps one of these, so callers can classify with errors.Is
// without parsing messages.
var (
	// ErrDuplicateSymbol marks a symbol defined by two objects.
	ErrDuplicateSymbol = errors.New("linker: duplicate symbol")
	// ErrUndefinedSymbol marks a relocation against a symbol no object defines.
	ErrUndefinedSymbol = errors.New("linker: undefined symbol")
	// ErrBadRelocation marks a relocation that cannot be applied (offset out
	// of range, unencodable target, unsupported kind).
	ErrBadRelocation = errors.New("linker: bad relocation")
	// ErrNoEntry marks a link with no _start or no main symbol.
	ErrNoEntry = errors.New("linker: no entry point")
	// ErrBadBase marks a text base that is not instruction-aligned: text is
	// padded in whole instructions, so no object could start at its address.
	ErrBadBase = errors.New("linker: text base not instruction-aligned")
)

// Default image geometry. Everything lives below 16 MiB so that 32-bit
// hi/lo relocations and 26-bit call targets always fit.
const (
	DefaultTextBase = 0x00100000 // 1 MiB
	PageSize        = 4096
)

// Options control layout policy.
type Options struct {
	TextBase uint64
	// PadObjects inserts this many bytes of padding between consecutive
	// objects' text (0 = none). Exposed for layout experiments.
	PadObjects uint64
}

// Executable is a fully linked, loadable program image.
type Executable struct {
	Entry    uint64
	TextBase uint64
	Text     []byte
	DataBase uint64
	Data     []byte
	BSSBase  uint64
	BSSSize  uint64

	// Symbols maps every defined symbol to its absolute address.
	Symbols map[string]uint64
	// Funcs lists function symbols sorted by address, for profiling and
	// disassembly.
	Funcs []FuncRange
	// Placements records where each input object landed, crt0 first and
	// then the objects in layout order. Two images whose placements name
	// the same objects in the same order are relinks of one program, and
	// with Symbols they say where every relocation landed and what it
	// patched in.
	Placements []Placement
}

// Placement locates one input object's sections in the image.
type Placement struct {
	Object          *obj.Object
	Text, Data, BSS uint64 // section base addresses
}

// FuncRange locates one function in the image.
type FuncRange struct {
	Name string
	Addr uint64
	Size uint64
}

// FuncAt returns the function containing addr, or nil.
func (e *Executable) FuncAt(addr uint64) *FuncRange {
	i := sort.Search(len(e.Funcs), func(i int) bool { return e.Funcs[i].Addr > addr })
	if i == 0 {
		return nil
	}
	f := &e.Funcs[i-1]
	if addr < f.Addr+f.Size {
		return f
	}
	return nil
}

// MemTop returns the lowest address above all loadable segments.
func (e *Executable) MemTop() uint64 { return e.BSSBase + e.BSSSize }

// Link combines the objects in the given order into an executable. A
// synthetic startup object (crt0) is always placed first, mirroring real
// toolchains; it calls main and then issues the exit system call.
func Link(objects []*obj.Object, opts Options) (*Executable, error) {
	if opts.TextBase == 0 {
		opts.TextBase = DefaultTextBase
	}
	if opts.TextBase%uint64(isa.InstSize) != 0 {
		return nil, fmt.Errorf("%w: %#x", ErrBadBase, opts.TextBase)
	}
	opts.PadObjects = alignUp(opts.PadObjects, uint64(isa.InstSize))
	all := append([]*obj.Object{crt0}, objects...)

	// Pass 1: detect duplicate definitions.
	defined := map[string]int{}
	for i, o := range all {
		if err := o.Validate(); err != nil {
			return nil, err
		}
		for _, s := range o.Symbols {
			if prev, dup := defined[s.Name]; dup {
				return nil, fmt.Errorf("%w: %s defined in both %s and %s", ErrDuplicateSymbol, s.Name, all[prev].Name, o.Name)
			}
			defined[s.Name] = i
		}
	}

	exe := &Executable{TextBase: opts.TextBase, Symbols: map[string]uint64{}, Placements: make([]Placement, len(all))}
	place := exe.Placements

	// Pass 2: lay out text in object order.
	addr := opts.TextBase
	for i, o := range all {
		align := objTextAlign(o)
		addr = alignUp(addr, align)
		place[i] = Placement{Object: o, Text: addr}
		pad := addr - opts.TextBase - uint64(len(exe.Text))
		for j := uint64(0); j < pad; j += uint64(isa.InstSize) {
			exe.Text = isa.EncodeTo(exe.Text, isa.Inst{Op: isa.OpNop})
		}
		exe.Text = append(exe.Text, o.Text...)
		addr += uint64(len(o.Text)) + opts.PadObjects
	}

	// Pass 3: data and bss, page-aligned after text, again in object order.
	exe.DataBase = alignUp(opts.TextBase+uint64(len(exe.Text)), PageSize)
	daddr := exe.DataBase
	for i, o := range all {
		daddr = alignUp(daddr, objDataAlign(o, obj.SecData))
		place[i].Data = daddr
		pad := daddr - exe.DataBase - uint64(len(exe.Data))
		exe.Data = append(exe.Data, make([]byte, pad)...)
		exe.Data = append(exe.Data, o.Data...)
		daddr += uint64(len(o.Data))
	}
	exe.BSSBase = alignUp(daddr, PageSize)
	baddr := exe.BSSBase
	for i, o := range all {
		baddr = alignUp(baddr, objDataAlign(o, obj.SecBSS))
		place[i].BSS = baddr
		baddr += o.BSSSize
	}
	exe.BSSSize = baddr - exe.BSSBase

	// Pass 4: resolve symbol addresses.
	for i, o := range all {
		for _, s := range o.Symbols {
			var base uint64
			switch s.Section {
			case obj.SecText:
				base = place[i].Text
			case obj.SecData:
				base = place[i].Data
			default:
				base = place[i].BSS
			}
			a := base + s.Offset
			exe.Symbols[s.Name] = a
			if s.Kind == obj.SymFunc {
				exe.Funcs = append(exe.Funcs, FuncRange{Name: s.Name, Addr: a, Size: s.Size})
			}
		}
	}
	sort.Slice(exe.Funcs, func(i, j int) bool { return exe.Funcs[i].Addr < exe.Funcs[j].Addr })

	// Pass 5: apply relocations.
	for i, o := range all {
		for _, r := range o.Relocs {
			target, ok := exe.Symbols[r.Sym]
			if !ok {
				return nil, fmt.Errorf("%w: %s referenced from %s", ErrUndefinedSymbol, r.Sym, o.Name)
			}
			target = uint64(int64(target) + r.Addend)
			switch r.Section {
			case obj.SecText:
				off := place[i].Text - opts.TextBase + r.Offset
				if err := patchText(exe.Text, off, r, target); err != nil {
					return nil, fmt.Errorf("%w: %s: %v", ErrBadRelocation, o.Name, err)
				}
			case obj.SecData:
				if r.Kind != obj.RelocAbs64 {
					return nil, fmt.Errorf("%w: %s: non-abs64 relocation in data", ErrBadRelocation, o.Name)
				}
				off := place[i].Data - exe.DataBase + r.Offset
				if off+8 > uint64(len(exe.Data)) {
					return nil, fmt.Errorf("%w: %s: data relocation offset %#x out of range", ErrBadRelocation, o.Name, off)
				}
				binary.LittleEndian.PutUint64(exe.Data[off:], target)
			default:
				return nil, fmt.Errorf("%w: %s: relocation in bss", ErrBadRelocation, o.Name)
			}
		}
	}

	entry, ok := exe.Symbols["_start"]
	if !ok {
		return nil, fmt.Errorf("%w: no _start symbol", ErrNoEntry)
	}
	exe.Entry = entry
	if _, ok := exe.Symbols["main"]; !ok {
		return nil, fmt.Errorf("%w: no main symbol", ErrNoEntry)
	}
	return exe, nil
}

func patchText(text []byte, off uint64, r obj.Reloc, target uint64) error {
	if off+4 > uint64(len(text)) {
		return fmt.Errorf("relocation offset %#x out of range", off)
	}
	w := binary.LittleEndian.Uint32(text[off:])
	switch r.Kind {
	case obj.RelocJal26:
		if target%uint64(isa.InstSize) != 0 {
			return fmt.Errorf("call target %#x for %s not instruction-aligned", target, r.Sym)
		}
		word := target / uint64(isa.InstSize)
		if word > isa.MaxImm26 {
			return fmt.Errorf("call target %#x for %s exceeds 26-bit range", target, r.Sym)
		}
		w = w&^uint32(isa.MaxImm26) | uint32(word)
	case obj.RelocHi16:
		if target>>32 != 0 {
			return fmt.Errorf("address %#x for %s exceeds 32-bit addressing", target, r.Sym)
		}
		w = w&^uint32(0xffff) | uint32(target>>16&0xffff)
	case obj.RelocLo16:
		w = w&^uint32(0xffff) | uint32(target&0xffff)
	default:
		return fmt.Errorf("unsupported text relocation %v", r.Kind)
	}
	binary.LittleEndian.PutUint32(text[off:], w)
	return nil
}

func alignUp(v, a uint64) uint64 {
	if a <= 1 {
		return v
	}
	return (v + a - 1) &^ (a - 1)
}

// objTextAlign returns the placement alignment for an object's text: the
// largest alignment any of its function symbols requests (at least one
// instruction). This is where the gcc/icc personalities diverge: icc objects
// demand 16-byte placement, gcc objects move in 4-byte steps as the objects
// before them grow and shrink — the raw material of link-order bias.
func objTextAlign(o *obj.Object) uint64 {
	align := uint64(isa.InstSize)
	for _, s := range o.Symbols {
		if s.Section == obj.SecText && s.Align > align {
			align = s.Align
		}
	}
	return align
}

func objDataAlign(o *obj.Object, sec obj.SectionKind) uint64 {
	align := uint64(1)
	for _, s := range o.Symbols {
		if s.Section == sec && s.Align > align {
			align = s.Align
		}
	}
	return align
}

// crt0 is the startup object: call main, then exit(0). It is built once
// and shared, read-only, by every link, so relinks of one program place
// the very same objects.
var crt0 = newCrt0()

func newCrt0() *obj.Object {
	o := &obj.Object{Name: "crt0.o"}
	var code []isa.Inst
	code = append(code,
		isa.Inst{Op: isa.OpJal, Rd: isa.RA, Imm: 0}, // patched to main
		isa.Inst{Op: isa.OpAddi, Rd: isa.A0, Rs1: isa.R0, Imm: isa.SysExit},
		isa.Inst{Op: isa.OpAddi, Rd: isa.A1, Rs1: isa.R0, Imm: 0},
		isa.Inst{Op: isa.OpSys, Rs1: isa.A0},
		isa.Inst{Op: isa.OpHalt},
	)
	for _, in := range code {
		o.Text = isa.EncodeTo(o.Text, in)
	}
	o.Symbols = []obj.Symbol{{
		Name: "_start", Kind: obj.SymFunc, Section: obj.SecText,
		Offset: 0, Size: uint64(len(o.Text)), Align: uint64(isa.InstSize),
	}}
	o.Relocs = []obj.Reloc{{Kind: obj.RelocJal26, Section: obj.SecText, Offset: 0, Sym: "main"}}
	return o
}
