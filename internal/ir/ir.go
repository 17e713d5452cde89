// Package ir defines the compiler's intermediate representation: a typed
// three-address code over virtual registers, organised into functions of
// basic blocks. The representation is deliberately non-SSA; scalars live in
// virtual registers and addressable data (arrays, spilled locals) lives in
// named stack slots or globals.
//
// The package also provides a reference interpreter (see interp.go) that
// executes IR directly against a flat byte-addressed memory. The interpreter
// is the semantic oracle for differential testing: every optimization level
// and code-generator personality must produce machine code whose observable
// output (the checksum stream) matches the interpreter's.
package ir

import (
	"fmt"
	"strings"
)

// VReg identifies a virtual register within a function. Parameters occupy
// v0..v(n-1); the builder allocates the rest densely.
type VReg int

func (v VReg) String() string { return fmt.Sprintf("v%d", int(v)) }

// Op is an IR operation.
type Op uint8

const (
	OpNop Op = iota

	// OpConst materializes the 64-bit constant Imm into Dst.
	OpConst

	// Binary arithmetic: Dst ← A op B. Division and remainder are signed
	// and trap on a zero divisor.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr // logical
	OpSar // arithmetic

	// Comparisons: Dst ← (A op B) ? 1 : 0, signed.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// OpNeg and OpNot are unary: Dst ← -A, Dst ← ^A.
	OpNeg
	OpNot

	// OpLoad reads Size bytes at address A (+Imm) into Dst. Signed loads
	// sign-extend. OpStore writes the low Size bytes of B to address A
	// (+Imm).
	OpLoad
	OpStore

	// OpAddrGlobal sets Dst to the address of global Sym plus Imm.
	// OpAddrSlot sets Dst to the address of frame slot Slot plus Imm.
	OpAddrGlobal
	OpAddrSlot

	// OpCall calls function Sym with Args; if the callee returns a value
	// it lands in Dst (Dst < 0 means the result is discarded).
	OpCall

	// OpSys performs system call number Imm with arguments Args; a result,
	// if any, lands in Dst.
	OpSys

	// OpCopy moves A to Dst. Inserted by the builder and by inlining;
	// copy-propagation removes most of them.
	OpCopy
)

var opNames = map[Op]string{
	OpNop: "nop", OpConst: "const", OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpDiv: "div", OpRem: "rem", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr", OpSar: "sar", OpEq: "eq", OpNe: "ne",
	OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge", OpNeg: "neg",
	OpNot: "not", OpLoad: "load", OpStore: "store",
	OpAddrGlobal: "addrg", OpAddrSlot: "addrs", OpCall: "call",
	OpSys: "sys", OpCopy: "copy",
}

func (op Op) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("op%d?", uint8(op))
}

// IsBinary reports whether op is a two-operand arithmetic or comparison op.
func (op Op) IsBinary() bool { return op >= OpAdd && op <= OpGe }

// IsCompare reports whether op is a comparison.
func (op Op) IsCompare() bool { return op >= OpEq && op <= OpGe }

// IsUnary reports whether op is a one-operand op.
func (op Op) IsUnary() bool { return op == OpNeg || op == OpNot || op == OpCopy }

// Commutative reports whether op's operands may be swapped.
func (op Op) Commutative() bool {
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpEq, OpNe:
		return true
	}
	return false
}

// Instr is a single three-address instruction. Which fields are meaningful
// depends on Op; see the Op constants. Dst of -1 means "no destination".
type Instr struct {
	Op     Op
	Dst    VReg
	A, B   VReg
	Imm    int64
	Sym    string
	Slot   int
	Size   uint8 // access width for OpLoad/OpStore: 1, 2, 4, 8
	Signed bool  // sign-extend loads
	Args   []VReg
}

func (in Instr) String() string {
	switch {
	case in.Op == OpConst:
		return fmt.Sprintf("%s = const %d", in.Dst, in.Imm)
	case in.Op == OpLoad:
		return fmt.Sprintf("%s = load%d%s %s+%d", in.Dst, in.Size, signSuffix(in.Signed), in.A, in.Imm)
	case in.Op == OpStore:
		return fmt.Sprintf("store%d %s+%d, %s", in.Size, in.A, in.Imm, in.B)
	case in.Op == OpAddrGlobal:
		return fmt.Sprintf("%s = addrg %s+%d", in.Dst, in.Sym, in.Imm)
	case in.Op == OpAddrSlot:
		return fmt.Sprintf("%s = addrs slot%d+%d", in.Dst, in.Slot, in.Imm)
	case in.Op == OpCall:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = a.String()
		}
		if in.Dst < 0 {
			return fmt.Sprintf("call %s(%s)", in.Sym, strings.Join(args, ", "))
		}
		return fmt.Sprintf("%s = call %s(%s)", in.Dst, in.Sym, strings.Join(args, ", "))
	case in.Op == OpSys:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = a.String()
		}
		return fmt.Sprintf("%s = sys %d(%s)", in.Dst, in.Imm, strings.Join(args, ", "))
	case in.Op.IsUnary():
		return fmt.Sprintf("%s = %s %s", in.Dst, in.Op, in.A)
	case in.Op.IsBinary():
		return fmt.Sprintf("%s = %s %s, %s", in.Dst, in.Op, in.A, in.B)
	}
	return in.Op.String()
}

func signSuffix(signed bool) string {
	if signed {
		return "s"
	}
	return "u"
}

// TermKind discriminates block terminators.
type TermKind uint8

const (
	// TermRet returns from the function; Val is the result register or -1.
	TermRet TermKind = iota
	// TermJmp jumps unconditionally to Then.
	TermJmp
	// TermBr branches to Then if Cond is non-zero, else to Else.
	TermBr
)

// Term is a basic-block terminator.
type Term struct {
	Kind TermKind
	Cond VReg
	Val  VReg // TermRet result, or -1
	Then *Block
	Else *Block
}

func (t Term) String() string {
	switch t.Kind {
	case TermRet:
		if t.Val < 0 {
			return "ret"
		}
		return fmt.Sprintf("ret %s", t.Val)
	case TermJmp:
		return fmt.Sprintf("jmp %s", t.Then.Name)
	case TermBr:
		return fmt.Sprintf("br %s, %s, %s", t.Cond, t.Then.Name, t.Else.Name)
	}
	return "term?"
}

// Block is a basic block: straight-line instructions plus one terminator.
type Block struct {
	Name   string
	Index  int // position within Func.Blocks; maintained by Func.Renumber
	Instrs []Instr
	Term   Term
}

// Succs returns the block's successors in branch order.
func (b *Block) Succs() []*Block {
	switch b.Term.Kind {
	case TermJmp:
		return []*Block{b.Term.Then}
	case TermBr:
		return []*Block{b.Term.Then, b.Term.Else}
	}
	return nil
}

// Slot describes one unit of addressable frame storage (e.g. a local array).
type Slot struct {
	Name  string
	Size  int64
	Align int64
}

// Loop records the structure of a source-level loop, annotated by the
// frontend so the unroller need not rediscover natural loops. Header is the
// block that tests the condition; Latch is the block that jumps back to
// Header; Blocks lists every block in the loop body (excluding Header);
// Exit is the block control reaches when the condition fails.
type Loop struct {
	Header *Block
	Latch  *Block
	Exit   *Block
	Blocks []*Block
}

// Func is an IR function.
type Func struct {
	Name      string
	NumParams int
	NumVRegs  int
	HasResult bool
	Blocks    []*Block // Blocks[0] is the entry block
	Slots     []Slot
	Loops     []Loop // frontend loop annotations; passes may consume these
}

// NewVReg allocates a fresh virtual register.
func (f *Func) NewVReg() VReg {
	v := VReg(f.NumVRegs)
	f.NumVRegs++
	return v
}

// Renumber refreshes Block.Index after structural edits.
func (f *Func) Renumber() {
	for i, b := range f.Blocks {
		b.Index = i
	}
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// String renders the function as readable IR text.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(params=%d, vregs=%d)", f.Name, f.NumParams, f.NumVRegs)
	if f.HasResult {
		sb.WriteString(" int")
	}
	sb.WriteString(" {\n")
	for _, s := range f.Slots {
		fmt.Fprintf(&sb, "  slot %s[%d] align %d\n", s.Name, s.Size, s.Align)
	}
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s:\n", b.Name)
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", in)
		}
		fmt.Fprintf(&sb, "  %s\n", b.Term)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Global is a module-level datum.
type Global struct {
	Name  string
	Size  int64
	Align int64
	Init  []byte // nil or shorter than Size ⇒ zero-filled remainder
}

// Module is a compilation unit: one translation unit's worth of globals and
// functions. The linker combines modules; the unit boundaries are what make
// link order meaningful.
type Module struct {
	Name    string
	Globals []*Global
	Funcs   []*Func
}

// Func returns the function named name, or nil.
func (m *Module) Func(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global returns the global named name, or nil.
func (m *Module) GlobalByName(name string) *Global {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// String renders the whole module.
func (m *Module) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s\n", m.Name)
	for _, g := range m.Globals {
		fmt.Fprintf(&sb, "global %s[%d] align %d\n", g.Name, g.Size, g.Align)
	}
	for _, f := range m.Funcs {
		sb.WriteString(f.String())
	}
	return sb.String()
}

// Program is a set of modules forming a complete executable: exactly one
// module must define "main".
type Program struct {
	Modules []*Module
}

// FindFunc locates a function by name across all modules.
func (p *Program) FindFunc(name string) *Func {
	for _, m := range p.Modules {
		if f := m.Func(name); f != nil {
			return f
		}
	}
	return nil
}
