package spec_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"biaslab/internal/spec"
)

// FuzzSpecParse drives the declarative spec reader, which parses files a
// user hands the daemon and the CLI, including whole-line `//` comments and
// `//audit:allow` directives. Parse and Compile must never panic, and
// compiling one parsed file twice must give the same jobs or the same
// error: the lowering depends on nothing but the file.
func FuzzSpecParse(f *testing.F) {
	for _, pattern := range []string{"*.json", "*/*.json"} {
		paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", pattern))
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			raw, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw)
		}
	}
	f.Add([]byte("//audit:allow single-setup\n// note\n{\"bench\":\"mcf\",\"channels\":{\"env\":{\"mode\":\"fixed\",\"env_bytes\":1024},\"base\":{\"mode\":\"randomized\"}}}"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<12 {
			t.Skip("oversized input")
		}
		file, err := spec.Parse(raw)
		if err != nil {
			return
		}
		a, errA := file.Compile()
		b, errB := file.Compile()
		if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
			t.Fatalf("second Compile returned %v, first %v", errB, errA)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("two Compiles of one file differ:\n%+v\n%+v", a, b)
		}
	})
}
