package analysis_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"biaslab/internal/analysis"
	"biaslab/internal/analysis/dataflow"
	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/core"
	"biaslab/internal/ir"
	"biaslab/internal/linker"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/layout.json")

// engineCase is one benchmark linked at the default layout at one
// optimization level, with the IR the footprint extractor reads slot sizes
// from.
type engineCase struct {
	name string // "bench/O2"
	exe  *linker.Executable
	prog *ir.Program
}

var (
	engineOnce  sync.Once
	engineCases []engineCase
	engineErr   error
)

// engineCorpus compiles and links every benchmark at O2 and O3, size test,
// once per test binary.
func engineCorpus(t testing.TB) []engineCase {
	t.Helper()
	engineOnce.Do(func() {
		for _, b := range bench.All() {
			for _, lvl := range []compiler.Level{compiler.O2, compiler.O3} {
				cfg := core.DefaultSetup("core2").WithLevel(lvl).Compiler
				objs, prog, err := compiler.Compile(b.Sources(bench.SizeTest), cfg)
				if err != nil {
					engineErr = err
					return
				}
				exe, err := linker.Link(objs, linker.Options{})
				if err != nil {
					engineErr = err
					return
				}
				engineCases = append(engineCases, engineCase{fmt.Sprintf("%s/%s", b.Name, lvl), exe, prog})
			}
		}
	})
	if engineErr != nil {
		t.Fatal(engineErr)
	}
	return engineCases
}

// Plan grids for the golden: a few instruction-, line- and page-granular
// displacements per channel, enough for EQUAL, TRANSITION and UNKNOWN pairs
// to occur without planning the full default grids.
var (
	goldenPadValues  = []uint64{0, 4, 8, 16, 64, 4096, 32768}
	goldenBaseValues = []uint64{linker.DefaultTextBase, linker.DefaultTextBase + 4, linker.DefaultTextBase + 16,
		linker.DefaultTextBase + 64, linker.DefaultTextBase + 4096, linker.DefaultTextBase + 32768}
	goldenEnvSizes = core.DefaultEnvSizes(16)
)

// TestLayoutGolden pins what the analysis engine derives from every
// benchmark at size test: the sha256 of the JSON encoding of the whole
// dataflow.Info and of the stack footprint at O2 and O3, of the pad and
// base plans on core2 and p4, and of the env plan over
// core.DefaultEnvSizes(16) on core2, p4 and m5. A performance change to the
// engine must leave every digest unchanged. Regenerate with
// `go test ./internal/analysis -run TestLayoutGolden -update` and review the
// diff.
func TestLayoutGolden(t *testing.T) {
	got := map[string]string{}
	for _, c := range engineCorpus(t) {
		info, err := dataflow.Analyze(c.exe)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		foot, err := analysis.ExtractStackFootprint(c.exe, c.prog)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name+"/info"] = jsonDigest(t, info)
		got[c.name+"/footprint"] = jsonDigest(t, foot)
	}

	// Plans dominate the test's time; plan the benchmarks in parallel.
	r := core.NewRunner(bench.SizeTest)
	var mu sync.Mutex
	t.Run("plans", func(t *testing.T) {
		for _, b := range bench.All() {
			b := b
			t.Run(b.Name, func(t *testing.T) {
				t.Parallel()
				for _, m := range []string{"core2", "p4", "m5"} {
					setup := core.DefaultSetup(m)
					env, err := core.PlanEnvSweep(r, b, setup, goldenEnvSizes)
					if err != nil {
						t.Fatalf("%s env: %v", m, err)
					}
					mu.Lock()
					got[b.Name+"/"+m+"/env"] = jsonDigest(t, env)
					mu.Unlock()
					if m == "m5" {
						continue
					}
					pad, err := core.PlanPadSweep(r, b, setup, goldenPadValues)
					if err != nil {
						t.Fatalf("%s pad: %v", m, err)
					}
					base, err := core.PlanBaseSweep(r, b, setup, goldenBaseValues)
					if err != nil {
						t.Fatalf("%s base: %v", m, err)
					}
					mu.Lock()
					got[b.Name+"/"+m+"/pad"] = jsonDigest(t, pad)
					got[b.Name+"/"+m+"/base"] = jsonDigest(t, base)
					mu.Unlock()
				}
			})
		}
	})
	if t.Failed() {
		return
	}

	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	path := filepath.Join("testdata", "golden", "layout.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(raw, want) {
		return
	}
	var wantMap map[string]string
	if err := json.Unmarshal(want, &wantMap); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for k, v := range got {
		if wantMap[k] != v {
			t.Errorf("%s: digest %s, golden %s", k, v, wantMap[k])
		}
	}
	for k := range wantMap {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: in the golden, not produced", k)
		}
	}
}

// TestNewChannelLayoutMatchesSeparateAnalyses pins the analyze-once
// contract: the footprint and Info NewChannelLayout derives from its single
// dataflow pass equal what ExtractStackFootprint and dataflow.Analyze
// compute on their own, for every benchmark at O2 and O3.
func TestNewChannelLayoutMatchesSeparateAnalyses(t *testing.T) {
	for _, c := range engineCorpus(t) {
		cl, err := analysis.NewChannelLayout(0, c.exe, c.prog)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		foot, err := analysis.ExtractStackFootprint(c.exe, c.prog)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		info, err := dataflow.Analyze(c.exe)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(cl.Foot, foot) {
			t.Errorf("%s: NewChannelLayout footprint differs from ExtractStackFootprint", c.name)
		}
		if !reflect.DeepEqual(cl.Info, info) {
			t.Errorf("%s: NewChannelLayout Info differs from dataflow.Analyze", c.name)
		}
	}
}

func jsonDigest(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}
