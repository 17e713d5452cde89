package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"biaslab/internal/server"
)

var update = flag.Bool("update", false, "rewrite the CLI golden files under testdata/golden")

// TestSweepFlagsGolden pins every sweep subcommand's flag set: each flag's
// name, value type, default and help, and the job spec the defaults
// describe. Regenerate with `go test ./cmd/biaslab -run Golden -update`
// and review the diff: a change here is a change to the CLI.
func TestSweepFlagsGolden(t *testing.T) {
	var sb strings.Builder
	for _, ch := range server.Channels() {
		fs, spec := sweepFlags(ch, "test")
		fmt.Fprintf(&sb, "%s\n", fs.Name())
		fs.VisitAll(func(f *flag.Flag) {
			fmt.Fprintf(&sb, "  -%s %T default %q: %s\n", f.Name, f.Value, f.DefValue, f.Usage)
		})
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(spec())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "  spec %s\n", raw)
	}
	checkGolden(t, "sweep-flags.txt", []byte(sb.String()))
}

// TestPredictGolden pins `biaslab predict` on the two code-layout
// channels, text and -json, for one benchmark at test size.
func TestPredictGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"predict-pad.txt", []string{"predict", "-channel", "pad"}},
		{"predict-pad.json", []string{"-json", "predict", "-channel", "pad"}},
		{"predict-base.txt", []string{"predict", "-channel", "base"}},
		{"predict-base.json", []string{"-json", "predict", "-channel", "base"}},
	} {
		args := append([]string{"-size", "test"}, tc.args...)
		args = append(args, "-bench", "mcf", "-machine", "core2")
		out, code := captureStdoutRun(t, args...)
		if code != 0 {
			t.Fatalf("run(%v) = exit %d", args, code)
		}
		checkGolden(t, tc.golden, []byte(out))
	}
}

// captureStdoutRun invokes the CLI entry point with stdout captured.
func captureStdoutRun(t *testing.T, args ...string) (string, int) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outCh := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		outCh <- string(b)
	}()
	code := run(args)
	w.Close()
	os.Stdout = old
	return <-outCh, code
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file:\n got: %.400s\nwant: %.400s", name, got, want)
	}
}
