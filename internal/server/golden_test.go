package server_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"biaslab/internal/bench"
	"biaslab/internal/cluster"
	"biaslab/internal/core"
	"biaslab/internal/server"
)

var update = flag.Bool("update", false, "rewrite the golden wire corpus under testdata/golden")

// goldenSpecs is the wire corpus: one spec per job kind and mode, all on
// one benchmark and machine at test size. Adaptive sweeps ride on the env
// and base channels (adaptive pad is the slow one).
var goldenSpecs = []struct {
	name string
	spec server.JobSpec
}{
	{"run", server.JobSpec{Kind: server.KindRun}},
	{"sweep-env", server.JobSpec{Kind: server.KindSweepEnv, Step: 512}},
	{"sweep-env-adaptive", server.JobSpec{Kind: server.KindSweepEnv, Step: 512, Adaptive: true}},
	{"sweep-pad", server.JobSpec{Kind: server.KindSweepPad}},
	{"sweep-base", server.JobSpec{Kind: server.KindSweepBase}},
	{"sweep-base-adaptive", server.JobSpec{Kind: server.KindSweepBase, Adaptive: true}},
	{"sweep-link", server.JobSpec{Kind: server.KindSweepLink, Orders: 4}},
	{"sweep-tenant", server.JobSpec{Kind: server.KindSweepTenant}},
	{"randomize", server.JobSpec{Kind: server.KindRandomize, N: 8}},
	{"randomize-co-random", server.JobSpec{Kind: server.KindRandomize, N: 8, CoRandom: true}},
	{"experiment-T1", server.JobSpec{Kind: server.KindExperiment, Experiment: "T1"}},
}

// TestGoldenWireCorpus pins the bytes every surface emits for each corpus
// spec: the canonical result encoding, the text and CSV renderings, the
// daemon's content key, and the ordered checkpoint keys the shard planner
// enumerates. Byte identity between paths (local, daemon, cluster) cannot
// catch a refactor that changes every path the same way; this can.
// Regenerate with `go test ./internal/server -run TestGoldenWireCorpus -update`
// and review the diff.
func TestGoldenWireCorpus(t *testing.T) {
	r := core.NewRunner(bench.SizeTest)
	for _, g := range goldenSpecs {
		g := g
		spec := g.spec
		spec.Size = "test"
		if spec.Kind != server.KindExperiment {
			spec.Bench, spec.Machine = "mcf", "core2"
		}
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			canonical, err := spec.Canonicalize()
			if err != nil {
				t.Fatal(err)
			}
			key, err := server.Key(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := server.Execute(context.Background(), r, canonical, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := server.EncodeResult(res)
			if err != nil {
				t.Fatal(err)
			}
			text, err := server.RenderText(res)
			if err != nil {
				t.Fatal(err)
			}
			csv, err := server.RenderCSV(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys strings.Builder
			keys.WriteString("content " + key + "\n")
			if points, err := cluster.Points(canonical); err == nil {
				for _, p := range points {
					keys.WriteString(p.Key + "\n")
				}
			} else {
				keys.WriteString("not shardable\n")
			}
			checkGolden(t, g.name+".json", append(raw, '\n'))
			checkGolden(t, g.name+".txt", []byte(text))
			checkGolden(t, g.name+".csv", []byte(csv))
			checkGolden(t, g.name+".keys", []byte(keys.String()))
		})
	}
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
		t.Errorf("%s differs from the golden corpus:\n got: %.400s\nwant: %.400s", name, got, want)
	}
}
