package linker

import (
	"errors"
	"testing"

	"biaslab/internal/compiler"
	"biaslab/internal/obj"
)

// TestSentinelErrors pins the typed-error contract: every linker failure
// class is classifiable with errors.Is, no message parsing required.
func TestSentinelErrors(t *testing.T) {
	objs := compileObjs(t, compiler.Config{}, mainSrc, helperSrc)

	dup := compileObjs(t, compiler.Config{}, `void main() {}`)
	if _, err := Link([]*obj.Object{objs[0], objs[1], dup[0]}, Options{}); !errors.Is(err, ErrDuplicateSymbol) {
		t.Errorf("duplicate main: err = %v, want ErrDuplicateSymbol", err)
	}

	// helper dropped from the link line: the call site cannot resolve.
	if _, err := Link([]*obj.Object{objs[0]}, Options{}); !errors.Is(err, ErrUndefinedSymbol) {
		t.Errorf("missing helper: err = %v, want ErrUndefinedSymbol", err)
	}

	// No main at all: crt0's call to main is the unresolved reference.
	if _, err := Link([]*obj.Object{objs[1]}, Options{}); !errors.Is(err, ErrUndefinedSymbol) {
		t.Errorf("missing main: err = %v, want ErrUndefinedSymbol", err)
	}

	// A relocation in bss can never be applied.
	bad := compileObjs(t, compiler.Config{}, mainSrc, helperSrc)
	bad[1].Relocs = append(bad[1].Relocs, obj.Reloc{
		Kind: obj.RelocAbs64, Section: obj.SecBSS, Offset: 0, Sym: "main",
	})
	if _, err := Link(bad, Options{}); !errors.Is(err, ErrBadRelocation) {
		t.Errorf("bss relocation: err = %v, want ErrBadRelocation", err)
	}

	// A base between instructions: the text padding could never line up.
	if _, err := Link(objs, Options{TextBase: DefaultTextBase + 2}); !errors.Is(err, ErrBadBase) {
		t.Errorf("unaligned base: err = %v, want ErrBadBase", err)
	}
}
