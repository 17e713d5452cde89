package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"biaslab/internal/server"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from this run")

// reducedOps is a workload's seed-1 op list of the given blocks, cut to a
// test-sized prefix at size test: the first k ops of each client's stream, in order, so every
// service hit still follows the fresh run it repeats. Pad sweeps and pad
// plans are left out: each takes longer at test size than the rest of its
// list, and they run the code paths of base sweeps and base plans, which
// stay.
func reducedOps(t *testing.T, w workload, blocks, k int) []op {
	t.Helper()
	ops, err := w.ops(1, blocks, "test")
	if err != nil {
		t.Fatal(err)
	}
	taken := map[int]int{}
	var out []op
	for _, o := range ops {
		if taken[o.Client] < k && o.Spec.Kind != server.KindSweepPad && o.Kind != opPlanPad {
			taken[o.Client]++
			out = append(out, o)
		}
	}
	for i := range out {
		out[i].ID = i
	}
	return out
}

// inTempDir runs the test from a fresh directory: a run's scratch files
// live under its working directory.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// reduced sizes each workload's test list: the blocks generated and the
// ops kept per client. Sweep keeps a base sweep, a randomize and a link
// sweep; corun a tenant sweep; plan a link-order map, a base plan and an
// env plan; service a fleet job with its hits and a few local runs.
var reduced = map[string]struct{ blocks, perClient int }{
	"sweep":   {6, 3},
	"corun":   {1, 1},
	"plan":    {2, 3},
	"service": {1, 4},
}

// TestWorkloadsMatchGolden makes a traced run of every workload on its
// reduced op list: the untraced pass must be correct and match the golden
// digest, and the traced pass must reproduce every untraced measurement's
// cycles and every result byte.
func TestWorkloadsMatchGolden(t *testing.T) {
	goldenPath, err := filepath.Abs(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	inTempDir(t)
	golden := map[string]string{}
	if raw, err := os.ReadFile(goldenPath); err == nil {
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	} else if !*update {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ops := reducedOps(t, w, reduced[w.name].blocks, reduced[w.name].perClient)
			cfg := childConfig{workload: w.name, seed: 1, mode: "trace", heartbeat: 20 * time.Millisecond}
			out := tracedRun(context.Background(), w, ops, cfg, childOutput{Metrics: map[string]value{}, Notes: map[string]any{}})
			if !out.Correct || out.Failed != 0 {
				t.Fatalf("traced run failed: %s", strings.Join(out.Errors, "; "))
			}
			if *update {
				golden[w.name] = out.ResultsSHA256
			} else if out.ResultsSHA256 != golden[w.name] {
				t.Errorf("results_sha256 %s, golden %s", out.ResultsSHA256, golden[w.name])
			}
			for _, d := range perLayer() {
				if _, ok := out.Metrics[d.Name]; !ok {
					t.Errorf("traced run lacks per-layer metric %s", d.Name)
				}
			}
		})
	}
	if *update {
		raw, _ := json.MarshalIndent(golden, "", "  ")
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpListsDependOnlyOnSeed pins the generator: the same seed gives the
// same op list, another seed another one.
func TestOpListsDependOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := w.ops(7, 6, "small")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.ops(7, 6, "small")
		c, _ := w.ops(8, 6, "small")
		ra, _ := json.Marshal(a)
		rb, _ := json.Marshal(b)
		rc, _ := json.Marshal(c)
		if string(ra) != string(rb) {
			t.Errorf("%s: seed 7 gave two op lists", w.name)
		}
		if string(ra) == string(rc) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", w.name)
		}
	}
}

// TestBenchmarkFileMatches holds BENCHMARK.json to the metrics the
// program reports.
func TestBenchmarkFileMatches(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var e2e []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.metricDef)
	}
	if got, want := fmt.Sprint(e2e), fmt.Sprint(endToEnd); got != want {
		t.Errorf("BENCHMARK.json end_to_end is %s, the program reports %s", got, want)
	}
	if got, want := fmt.Sprint(bf.PerLayer), fmt.Sprint(perLayer()); got != want {
		t.Errorf("BENCHMARK.json per_layer is %s, the program reports %s", got, want)
	}
	names := map[string]bool{}
	for _, w := range bf.Workloads {
		names[w.Name] = true
	}
	for _, w := range workloads {
		if !names[w.name] {
			t.Errorf("BENCHMARK.json lacks workload %s", w.name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python 3.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct, n := tail(xs); v != 990 || pct != 99 || n != 1000 {
		t.Errorf("tail of 1..1000 = %v (p%d of %d), want 990 (p99)", v, pct, n)
	}
	if v, pct, _ := tail(xs[:12]); v != 11 || pct != 91 {
		t.Errorf("tail of 1..12 = %v (p%d), want 11 (p91)", v, pct)
	}
}

// syntheticFile is a result file of five runs of one workload whose
// metrics are base scaled by scale, with a little run-to-run jitter.
func syntheticFile(scale float64, digest string) *resultFile {
	f := &resultFile{}
	for i := 0; i < 5; i++ {
		jitter := 1 + 0.004*float64(i-2)
		m := map[string]value{}
		for _, d := range endToEnd {
			m[d.Name] = value{100 * scale * jitter, d.Unit}
		}
		f.Runs = append(f.Runs, runRecord{Workload: "sweep", Seed: uint64(i + 1), Seconds: 20, Correct: true, ResultsSHA256: digest, Metrics: m})
	}
	return f
}

// shippedBenchmarkFile is BENCHMARK.json as the repository ships it, so the
// compare tests judge with the bounds a real comparison uses.
func shippedBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// shifted is syntheticFile(1) with every metric moved by the share by:
// a positive share makes every metric worse, a negative one better.
func shifted(by float64) *resultFile {
	f := syntheticFile(1, "d")
	for _, r := range f.Runs {
		for _, d := range endToEnd {
			v := r.Metrics[d.Name]
			if d.Better == "lower" {
				v.Value *= 1 + by
			} else {
				v.Value *= 1 - by
			}
			r.Metrics[d.Name] = v
		}
	}
	return f
}

// TestCompareVerdicts judges synthetic changes against the shipped bounds
// (0.25 on every metric): a change that worsens every metric by more than
// the bound regresses, one that worsens it by 20% stays within the bound
// and is not flagged, and a 20% gain won on every pair is an improvement.
func TestCompareVerdicts(t *testing.T) {
	bf := shippedBenchmarkFile(t)
	for _, m := range bf.EndToEnd {
		if m.Bound >= 0.3 || m.Bound <= 0.2 {
			t.Fatalf("%s has bound %v; the rows below assume a bound in (0.2, 0.3)", m.Name, m.Bound)
		}
	}
	for _, row := range []struct {
		name   string
		change *resultFile
		want   string
	}{
		{"identical", syntheticFile(1, "d"), verdictSame},
		{"30% worse", shifted(0.3), verdictRegressed},
		{"20% worse", shifted(0.2), verdictSame},
		{"20% better", shifted(-0.2), verdictImproved},
	} {
		cs, faults := compareFiles(syntheticFile(1, "d"), row.change, bf)
		if len(faults) != 0 {
			t.Fatalf("%s: unexpected faults: %v", row.name, faults)
		}
		if len(cs) != len(endToEnd) {
			t.Fatalf("%s: %d comparisons, want %d", row.name, len(cs), len(endToEnd))
		}
		for _, c := range cs {
			if c.Verdict != row.want {
				t.Errorf("%s: %s on %s: verdict %s, want %s", row.name, c.Metric, c.Workload, c.Verdict, row.want)
			}
		}
	}
}

// TestCompareRefuses lists the inputs compare will not judge: each must
// produce a fault, which makes perf compare exit 2.
func TestCompareRefuses(t *testing.T) {
	bf := shippedBenchmarkFile(t)
	failing := syntheticFile(1, "d")
	failing.Runs[3].Correct, failing.Runs[3].Failed, failing.Runs[3].Attempted = false, 1, 9
	longer := syntheticFile(1, "d")
	longer.Runs[1].Seconds = 30
	for _, row := range []struct {
		name      string
		old, cur  *resultFile
		wantFault int
	}{
		{"identical", syntheticFile(1, "d"), syntheticFile(1, "d"), 0},
		{"digests differ", syntheticFile(1, "a"), syntheticFile(1, "b"), 5},
		{"a new run failed", syntheticFile(1, "d"), failing, 1},
		{"an old run failed", failing, syntheticFile(1, "d"), 1},
		{"run lengths differ", syntheticFile(1, "d"), longer, 1},
	} {
		if _, faults := compareFiles(row.old, row.cur, bf); len(faults) != row.wantFault {
			t.Errorf("%s: %d faults %v, want %d", row.name, len(faults), faults, row.wantFault)
		}
	}
}
