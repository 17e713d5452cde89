package machine

import (
	"fmt"
	"slices"
	"testing"

	"biaslab/internal/isa"
	"biaslab/internal/loader"
)

// fuzzBudget bounds every fuzzed run. It is well above threadedSlack, so
// the threaded engine runs whole blocks before the stepper takes over.
const fuzzBudget = 20_000

// engineRun is one engine's observable outcome. Counters and output are
// read from the machine, so a run that faults is compared as closely as
// one that halts.
type engineRun struct {
	counters Counters
	output   []int64
	checksum uint64
	exitCode int64
	err      string
}

func (r engineRun) String() string {
	return fmt.Sprintf("err=%q exit=%d checksum=%#x output=%v\ncounters=%+v", r.err, r.exitCode, r.checksum, r.output, r.counters)
}

func outcome(m *Machine, err error) engineRun {
	r := engineRun{counters: m.counters, output: m.output, checksum: m.checksum, exitCode: m.exitCode}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// wordImage loads raw instruction words as the text segment of a 64 KiB
// image, the way asmImage does for assembled ones.
func wordImage(code []byte) *loader.Image {
	text := len(code) / isa.InstSize * isa.InstSize
	img := asmImage(nil, 1<<16)
	copy(img.Mem[img.TextBase:], code[:text])
	img.TextSize = uint64(text)
	return img
}

// stepInQuanta drives a run through BeginRun and StepTo, one quantum of
// retired instructions per call, as a co-run schedules a tenant. A StepTo
// that neither halts nor faults must stop exactly at its limit.
func stepInQuanta(t *testing.T, m *Machine, img *loader.Image, quantum, maxInstr uint64) error {
	m.BeginRun(img)
	for {
		limit := maxInstr
		if quantum < maxInstr-m.Retired() {
			limit = m.Retired() + quantum
		}
		halted, err := m.StepTo(limit)
		if err != nil || halted {
			return err
		}
		if m.Retired() != limit {
			t.Fatalf("%s: StepTo(%d) stopped at %d instructions", m.cfg.Name, limit, m.Retired())
		}
		if m.Retired() >= maxInstr {
			return m.BudgetErr(maxInstr)
		}
	}
}

// FuzzEngines runs fuzzed instruction words on every engine entry point —
// Run (threaded engine with the stepper for the slice tail), BeginRun and
// StepTo in fuzzed quanta, and RunReference (the stepper alone) — and
// demands identical counters, output, checksum, exit code and error text
// from all three, on every shipped machine and on one whose fetch block is
// not a power of two.
func FuzzEngines(f *testing.F) {
	seed := func(quantum uint64, code ...isa.Inst) {
		var b []byte
		for _, in := range code {
			b = isa.EncodeTo(b, in)
		}
		f.Add(b, quantum)
	}
	// loop wraps body in a 100-iteration countdown on S0 and ends with
	// tail, so the body runs inside the threaded engine and the tail
	// fires after it; an empty tail checksums T1 and halts.
	loop := func(body []isa.Inst, tail ...isa.Inst) []isa.Inst {
		code := []isa.Inst{{Op: isa.OpAddi, Rd: isa.S0, Rs1: isa.R0, Imm: 100}}
		code = append(code, body...)
		code = append(code,
			isa.Inst{Op: isa.OpAddi, Rd: isa.S0, Rs1: isa.S0, Imm: -1},
			isa.Inst{Op: isa.OpBne, Rs1: isa.S0, Rs2: isa.R0, Imm: int32(-len(body) - 2)},
		)
		if len(tail) == 0 {
			tail = []isa.Inst{
				{Op: isa.OpAddi, Rd: isa.A0, Rs1: isa.R0, Imm: isa.SysChecksum},
				{Op: isa.OpAdd, Rd: isa.A1, Rs1: isa.T1, Rs2: isa.R0},
				{Op: isa.OpSys},
				{Op: isa.OpHalt},
			}
		}
		return append(code, tail...)
	}
	stq := func(off int32, src isa.Reg) isa.Inst {
		return isa.Inst{Op: isa.OpStq, Rs1: isa.SP, Rs2: src, Imm: off}
	}
	ldq := func(rd isa.Reg, off int32) isa.Inst {
		return isa.Inst{Op: isa.OpLdq, Rd: rd, Rs1: isa.SP, Imm: off}
	}
	addi := func(rd, rs isa.Reg, imm int32) isa.Inst {
		return isa.Inst{Op: isa.OpAddi, Rd: rd, Rs1: rs, Imm: imm}
	}
	add := func(rd, rs1, rs2 isa.Reg) isa.Inst {
		return isa.Inst{Op: isa.OpAdd, Rd: rd, Rs1: rs1, Rs2: rs2}
	}

	// The seven opcode pairs the threaded engine once fused.
	pairs := [][]isa.Inst{
		{{Op: isa.OpLui, Rd: isa.T0, Imm: 0x1234}, {Op: isa.OpOri, Rd: isa.T0, Rs1: isa.T0, Imm: 0x5678}, add(isa.T1, isa.T1, isa.T0)},
		{{Op: isa.OpXor, Rd: isa.T0, Rs1: isa.S0, Rs2: isa.T1}, {Op: isa.OpSltu, Rd: isa.T2, Rs1: isa.R0, Rs2: isa.T0}, add(isa.T1, isa.T1, isa.T2)},
		{addi(isa.T1, isa.T1, 3), stq(-8, isa.T1)},
		{add(isa.T1, isa.T1, isa.S0), stq(-16, isa.T1)},
		{stq(-8, isa.S0), add(isa.T1, isa.T1, isa.S0)},
		{stq(-4100, isa.S0), addi(isa.T1, isa.T1, 7)},
		{stq(-8, isa.S0), ldq(isa.T2, -4104), add(isa.T1, isa.T1, isa.T2)},
	}
	for _, body := range pairs {
		seed(4096, loop(body)...)
	}
	// A branch into the second op of a store/reload pair: the loop's back
	// edge lands on the ldq, never on the stq before it.
	seed(4096,
		addi(isa.S0, isa.R0, 100),
		stq(-8, isa.S0),
		ldq(isa.T2, -8),
		add(isa.T1, isa.T1, isa.T2),
		addi(isa.S0, isa.S0, -1),
		isa.Inst{Op: isa.OpBne, Rs1: isa.S0, Rs2: isa.R0, Imm: -4},
		isa.Inst{Op: isa.OpHalt},
	)
	// A jump off the end of text, and a jalr to a misaligned target.
	seed(4096, loop([]isa.Inst{add(isa.T1, isa.T1, isa.S0)}, isa.Inst{Op: isa.OpJmp, Imm: 1000})...)
	seed(4096, loop([]isa.Inst{add(isa.T1, isa.T1, isa.S0)},
		addi(isa.T0, isa.R0, 0x1002),
		isa.Inst{Op: isa.OpJalr, Rd: isa.R0, Rs1: isa.T0},
	)...)
	// Divide by zero, a store beyond memory and a store into text.
	seed(4096, loop([]isa.Inst{add(isa.T1, isa.T1, isa.S0)}, isa.Inst{Op: isa.OpDiv, Rd: isa.T0, Rs1: isa.T1, Rs2: isa.R0})...)
	seed(4096, loop([]isa.Inst{add(isa.T1, isa.T1, isa.S0)}, stq(0x7ff8, isa.T1))...)
	seed(4096, loop([]isa.Inst{add(isa.T1, isa.T1, isa.S0)}, addi(isa.T0, isa.R0, 0x1000), isa.Inst{Op: isa.OpStq, Rs1: isa.T0, Rs2: isa.T1})...)
	// Quanta around threadedSlack, over a loop long enough to span many.
	for _, q := range []uint64{1, 63, 64, 65, 66, 67, 4096} {
		seed(q, loop([]isa.Inst{stq(-8, isa.S0), ldq(isa.T2, -8), add(isa.T1, isa.T1, isa.T2)})...)
	}

	// A fetch block that is not a power of two keeps the whole run on the
	// stepper; it must still agree with RunReference through every entry
	// point.
	odd := Core2()
	odd.Name = "Core 2, 24-byte fetch block"
	odd.FetchBlockBytes = 24
	configs := append(Configs(), odd)

	f.Fuzz(func(t *testing.T, code []byte, quantum uint64) {
		if len(code) > 4096 {
			t.Skip("oversized program")
		}
		if quantum == 0 {
			quantum = 1
		}
		for _, cfg := range configs {
			m := New(cfg)
			_, err := m.Run(wordImage(code), fuzzBudget)
			fast := outcome(m, err)

			m = New(cfg)
			err = stepInQuanta(t, m, wordImage(code), quantum, fuzzBudget)
			stepped := outcome(m, err)

			m = New(cfg)
			_, err = m.RunReference(wordImage(code), fuzzBudget)
			ref := outcome(m, err)

			for _, got := range []struct {
				name string
				r    engineRun
			}{{"Run", fast}, {fmt.Sprintf("StepTo(quantum %d)", quantum), stepped}} {
				if got.r.counters != ref.counters || got.r.checksum != ref.checksum ||
					got.r.exitCode != ref.exitCode || got.r.err != ref.err || !slices.Equal(got.r.output, ref.output) {
					t.Fatalf("%s: %s diverges from RunReference\n%s:\n%v\nRunReference:\n%v\nprogram:\n%s",
						cfg.Name, got.name, got.name, got.r, ref, isa.Disassemble(code[:len(code)/isa.InstSize*isa.InstSize], 0x1000))
				}
			}
		}
	})
}
