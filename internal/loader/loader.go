// Package loader builds a process image from a linked executable: it places
// the text, data and bss segments, lays out the initial stack, and — the
// crux of the paper's first experiment — copies the UNIX environment block
// onto the top of the stack before computing the initial stack pointer.
//
// Because the environment strings sit between the fixed stack top and the
// first frame, **every byte added to the environment slides every stack
// address in the entire execution**. That is the mechanism by which an
// innocuous `export FOO=...` changes cache-set mappings, 4 KiB aliasing
// distances and page boundaries, and therefore measured cycles.
package loader

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"biaslab/internal/isa"
	"biaslab/internal/linker"
	"biaslab/internal/memo"
)

// Default geometry: a 16 MiB address space with the stack at the top.
const (
	DefaultMemSize  = 16 << 20
	DefaultStackTop = DefaultMemSize - 64
)

// Sentinel errors for the loader's failure classes; every failure returned
// by Load wraps one of these.
var (
	// ErrBadGeometry marks impossible geometry options (stack top outside
	// memory).
	ErrBadGeometry = errors.New("loader: bad geometry")
	// ErrImageTruncated marks an executable whose declared segment layout
	// does not fit its payload or the address space — the image cannot have
	// been produced by a correct link.
	ErrImageTruncated = errors.New("loader: truncated or inconsistent executable")
	// ErrStackOverflow marks an environment/argument block (plus stack
	// shift) too large for the room between the program segments and the
	// stack top.
	ErrStackOverflow = errors.New("loader: initial stack exceeds available memory")
)

// Options control process creation.
type Options struct {
	MemSize  uint64
	StackTop uint64
	// Env is the environment, as "KEY=VALUE" strings.
	Env []string
	// Args is the argument vector (argv[0] is conventionally the program
	// name); arguments are copied above the stack like the environment.
	Args []string
	// StackShift, when non-zero, additionally lowers the initial stack
	// pointer by the given number of bytes. It is the *intervention knob*
	// for causal analysis: it reproduces the environment-size effect
	// directly, without touching the environment.
	StackShift uint64
}

// EnvBytes returns the number of bytes the environment block occupies: each
// string plus its NUL terminator, plus one pointer per entry and a
// terminating null pointer (the envp array), mirroring execve.
func EnvBytes(env []string) uint64 {
	n := uint64(0)
	for _, s := range env {
		n += uint64(len(s)) + 1
	}
	n += uint64(len(env)+1) * isa.WordSize
	return n
}

// syntheticEnvCap bounds the synthetic-environment memo: an env sweep
// touches one entry per grid point, so even the paper's densest grid (512
// sizes) fits.
const syntheticEnvCap = 1024

var syntheticEnvs = memo.New[uint64, []string](syntheticEnvCap)

// SyntheticEnv builds an environment whose EnvBytes is exactly total when
// total is representable (total == 8, the empty environment, or total ≥ 17,
// since the smallest variable costs 9 bytes). Unrepresentable totals
// (0–7 and 9–16) fall back to the empty environment; experiments should
// sweep over representable sizes and report EnvBytes of what they got.
//
// The result is memoized per size and shared between callers — an env sweep
// measuring two optimization levels at each grid point builds each
// environment once, not once per load. Callers must treat it as read-only.
func SyntheticEnv(total uint64) []string {
	env, _ := syntheticEnvs.Get(total, func() ([]string, error) { // never fails
		return buildSyntheticEnv(total), nil
	})
	return env
}

// buildSyntheticEnv is the uncached builder behind SyntheticEnv.
func buildSyntheticEnv(total uint64) []string {
	const (
		slot   = isa.WordSize     // one envp pointer
		minVar = 1 + isa.WordSize // empty string + NUL + pointer
	)
	if total < slot+minVar {
		return nil
	}
	var env []string
	remaining := total - slot // bytes still owed beyond the null envp slot
	i := 0
	for remaining >= minVar {
		payload := remaining - minVar
		if payload > 120 {
			payload = 120
		}
		env = append(env, pad(fmt.Sprintf("BIAS%02d=", i), int(payload)))
		remaining -= payload + minVar
		i++
	}
	if remaining > 0 {
		// Stretch the last variable by the remainder (one byte of string
		// costs exactly one byte of environment).
		env[len(env)-1] += pad("", int(remaining))
	}
	if got := EnvBytes(env); got != total {
		panic(fmt.Sprintf("loader: synthetic env builder produced %d bytes, want %d", got, total))
	}
	return env
}

func pad(prefix string, n int) string {
	b := make([]byte, n)
	copy(b, prefix)
	for i := len(prefix); i < n; i++ {
		b[i] = 'x'
	}
	return string(b)
}

// Image is a ready-to-run process: initial memory, registers and entry pc.
type Image struct {
	Mem      []byte
	Entry    uint64
	SP       uint64
	TextBase uint64
	TextSize uint64
	// EnvBase is the lowest address of the environment block (diagnostics).
	EnvBase uint64
	// Exe retains the executable for symbolization.
	Exe *linker.Executable
}

// Image buffers are recycled across runs through a free list per buffer
// size, so the 16 MiB solo geometry and the 32 MiB co-runner geometry are
// both recycled and a Load never receives a buffer of another size. Every
// buffer on a list is fully zero — a new buffer is zeroed memory and
// Release clears every byte a run wrote — so a recycled Load starts from
// exactly the state a fresh allocation would, preserving bit-identical
// execution.
//
// A new buffer is mapped anonymously from the OS (newBuf), outside the Go
// heap, so its untouched pages stay on the kernel's zero page whatever
// the process did with that memory before; a heap span the runtime had
// already zeroed would be resident in full. The garbage collector never
// frees such a buffer, so every buffer Load hands out must come back
// through Release. The lists need no bound: Load allocates only when the
// list is empty, so a list never holds more buffers than were once in use
// at the same time.
var (
	freeMu   sync.Mutex
	freeBufs = map[uint64][][]byte{}
)

// clearChunk is the granularity at which Release looks for written bytes:
// one 4 KiB page. A page no run wrote is only read, never written, so a
// buffer's untouched pages stay backed by the kernel's shared zero page and
// add nothing to the process's resident memory.
const clearChunk = 4 << 10

var zeroChunk [clearChunk]byte

// getBuf returns a zeroed buffer of size bytes, recycled when one is free.
func getBuf(size uint64) []byte {
	freeMu.Lock()
	list := freeBufs[size]
	if n := len(list); n > 0 {
		mem := list[n-1]
		list[n-1] = nil
		freeBufs[size] = list[:n-1]
		freeMu.Unlock()
		return mem
	}
	freeMu.Unlock()
	return newBuf(size)
}

// putBuf puts a zeroed buffer on the free list for its size.
func putBuf(mem []byte) {
	size := uint64(len(mem))
	freeMu.Lock()
	defer freeMu.Unlock()
	freeBufs[size] = append(freeBufs[size], mem)
}

// clearWritten zeroes mem by clearing each chunk that holds a nonzero
// byte. Comparing with a zero chunk finds every such byte whoever wrote
// it, so the result is exactly clear(mem) without writing, and so without
// faulting in, the pages that are already zero.
func clearWritten(mem []byte) {
	for off := 0; off < len(mem); off += clearChunk {
		c := mem[off:min(off+clearChunk, len(mem))]
		if !bytes.Equal(c, zeroChunk[:len(c)]) {
			clear(c)
		}
	}
}

// Release returns the image's memory buffer to the loader's free list for
// its size and detaches it from the image. Call it only when the run is
// complete and nothing retains img.Mem. It is also the way to give up an
// image whose run failed: clearing is exact whatever the run left in the
// buffer, so the buffer goes back pristine.
func (img *Image) Release() {
	mem := img.Mem
	img.Mem = nil
	if mem == nil {
		return
	}
	clearWritten(mem)
	putBuf(mem)
}

// InitialSP computes the initial stack pointer Load would hand the machine
// under opts, without building an image. It duplicates Load's placement
// arithmetic (strings, pointer arrays, stack shift, 8-byte rounding) rather
// than sharing code with it, so the loader hot path stays untouched; the
// equality test in loader_test.go keeps the two in lock-step. This is the
// entry point the bias oracle uses to turn an environment size into a stack
// displacement.
func InitialSP(opts Options) uint64 {
	memSize := opts.MemSize
	if memSize == 0 {
		memSize = DefaultMemSize
	}
	stackTop := opts.StackTop
	if stackTop == 0 {
		stackTop = memSize - 64
	}
	sp := stackTop
	for _, a := range opts.Args {
		sp -= uint64(len(a)) + 1
	}
	sp -= EnvBytes(opts.Env)
	sp -= uint64(len(opts.Args)+1) * isa.WordSize
	sp -= opts.StackShift
	sp &^= 7
	return sp
}

// Load builds a process image for exe under opts.
func Load(exe *linker.Executable, opts Options) (*Image, error) {
	memSize := opts.MemSize
	if memSize == 0 {
		memSize = DefaultMemSize
	}
	stackTop := opts.StackTop
	if stackTop == 0 {
		stackTop = memSize - 64
	}
	if stackTop >= memSize {
		return nil, fmt.Errorf("%w: stack top %#x beyond memory size %#x", ErrBadGeometry, stackTop, memSize)
	}
	if err := validateImage(exe, memSize); err != nil {
		return nil, err
	}
	if exe.MemTop() >= stackTop {
		return nil, fmt.Errorf("%w: program segments (top %#x) collide with stack", ErrStackOverflow, exe.MemTop())
	}

	// The whole initial stack must fit between the program segments and the
	// stack top. Checking up front (rather than letting sp wrap below zero
	// mid-placement) turns an oversized environment into a typed error
	// instead of a slice-bounds panic.
	need := EnvBytes(opts.Env)
	for _, a := range opts.Args {
		need += uint64(len(a)) + 1
	}
	need += uint64(len(opts.Args)+1) * isa.WordSize
	need += opts.StackShift + 8 // alignment slack
	if avail := stackTop - exe.MemTop(); need >= avail {
		return nil, fmt.Errorf("%w: %d bytes of environment/arguments/shift, %d available below stack top %#x",
			ErrStackOverflow, need, avail, stackTop)
	}

	mem := getBuf(memSize)
	copy(mem[exe.TextBase:], exe.Text)
	copy(mem[exe.DataBase:], exe.Data)
	// BSS is already zero.

	// Stack layout, mirroring execve: strings for argv and envp first
	// (top-down), then the pointer arrays, then the initial sp rounded
	// down to 8 bytes. Real ABIs round to 16; using 8 preserves the
	// byte-level sensitivity the paper measured while keeping every
	// 8-byte quantity naturally aligned.
	sp := stackTop

	strPtrs := make([]uint64, 0, len(opts.Args)+len(opts.Env))
	place := func(s string) uint64 {
		sp -= uint64(len(s)) + 1
		copy(mem[sp:], s)
		mem[sp+uint64(len(s))] = 0
		return sp
	}
	for _, a := range opts.Args {
		strPtrs = append(strPtrs, place(a))
	}
	envBase := sp
	for _, e := range opts.Env {
		strPtrs = append(strPtrs, place(e))
		envBase = sp
	}
	// Pointer arrays: envp (null-terminated) below the strings, then argv.
	writePtr := func(p uint64) {
		sp -= isa.WordSize
		putUint64(mem[sp:], p)
	}
	writePtr(0) // envp terminator
	for i := len(opts.Env) - 1; i >= 0; i-- {
		writePtr(strPtrs[len(opts.Args)+i])
	}
	writePtr(0) // argv terminator
	for i := len(opts.Args) - 1; i >= 0; i-- {
		writePtr(strPtrs[i])
	}
	sp -= opts.StackShift
	sp &^= 7
	if sp <= exe.MemTop() {
		// Unreachable given the up-front space check; keep the guard as an
		// internal invariant.
		return nil, fmt.Errorf("%w: stack underflow after environment placement", ErrStackOverflow)
	}

	return &Image{
		Mem:      mem,
		Entry:    exe.Entry,
		SP:       sp,
		TextBase: exe.TextBase,
		TextSize: uint64(len(exe.Text)),
		EnvBase:  envBase,
		Exe:      exe,
	}, nil
}

// validateImage rejects executables whose declared layout is inconsistent
// (overlapping or out-of-order segments, addresses past the address
// space) before any of it is copied into memory.
func validateImage(exe *linker.Executable, memSize uint64) error {
	textEnd := exe.TextBase + uint64(len(exe.Text))
	dataEnd := exe.DataBase + uint64(len(exe.Data))
	bssEnd := exe.BSSBase + exe.BSSSize
	switch {
	case textEnd < exe.TextBase || dataEnd < exe.DataBase || bssEnd < exe.BSSBase:
		return fmt.Errorf("%w: segment address overflow", ErrImageTruncated)
	case textEnd > exe.DataBase:
		return fmt.Errorf("%w: text [%#x,%#x) overlaps data base %#x", ErrImageTruncated, exe.TextBase, textEnd, exe.DataBase)
	case dataEnd > exe.BSSBase:
		return fmt.Errorf("%w: data [%#x,%#x) overlaps bss base %#x", ErrImageTruncated, exe.DataBase, dataEnd, exe.BSSBase)
	case bssEnd > memSize:
		return fmt.Errorf("%w: segments end %#x beyond memory size %#x", ErrImageTruncated, bssEnd, memSize)
	case len(exe.Text) == 0 || exe.Entry < exe.TextBase || exe.Entry >= textEnd:
		return fmt.Errorf("%w: entry %#x outside text [%#x,%#x)", ErrImageTruncated, exe.Entry, exe.TextBase, textEnd)
	}
	return nil
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
