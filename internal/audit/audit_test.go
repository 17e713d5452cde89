package audit_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"biaslab/internal/audit"
	"biaslab/internal/bench"
	"biaslab/internal/core"
	"biaslab/internal/server"
	"biaslab/internal/stats"
)

// One shared Runner across every test: the oracle-backed rules compile and
// link through its caches, so the fleet of table cases costs two compiles,
// not two per case.
var (
	runnerOnce sync.Once
	runner     *core.Runner
)

func testAuditor() *audit.Auditor {
	return audit.New(func(size bench.Size) *core.Runner {
		runnerOnce.Do(func() { runner = core.NewRunner(bench.SizeTest) })
		if size != bench.SizeTest {
			panic("audit tests only use the test workload size")
		}
		return runner
	})
}

// findRule returns the findings carrying the rule id.
func findRule(fs []audit.Finding, rule string) []audit.Finding {
	var out []audit.Finding
	for _, f := range fs {
		if f.Rule == rule {
			out = append(out, f)
		}
	}
	return out
}

// TestRuleTable is the catalog acceptance test: one guilty and one
// innocent spec per single-spec rule.
func TestRuleTable(t *testing.T) {
	a := testAuditor()
	cases := []struct {
		name     string
		spec     server.JobSpec
		rule     string
		guilty   bool
		severity server.AuditSeverity
	}{
		{
			name:     "single-setup guilty",
			spec:     server.JobSpec{Kind: "randomize", Bench: "hmmer", Size: "test", N: 1},
			rule:     audit.RuleSingleSetup,
			guilty:   true,
			severity: server.AuditError,
		},
		{
			name:   "single-setup innocent",
			spec:   server.JobSpec{Kind: "randomize", Bench: "hmmer", Size: "test", N: 16},
			rule:   audit.RuleSingleSetup,
			guilty: false,
		},
		{
			name:     "insufficient-setups guilty",
			spec:     server.JobSpec{Kind: "randomize", Bench: "hmmer", Size: "test", N: 4},
			rule:     audit.RuleFewSetups,
			guilty:   true,
			severity: server.AuditError,
		},
		{
			name:   "insufficient-setups innocent at threshold",
			spec:   server.JobSpec{Kind: "randomize", Bench: "hmmer", Size: "test", N: audit.MinSetups()},
			rule:   audit.RuleFewSetups,
			guilty: false,
		},
		{
			name:     "insufficient-setups adaptive cap is a warn",
			spec:     server.JobSpec{Kind: "randomize", Bench: "hmmer", Size: "test", N: 4, Tol: 0.01},
			rule:     audit.RuleFewSetups,
			guilty:   true,
			severity: server.AuditWarn,
		},
		{
			name:     "coarse-env-grid guilty at default step",
			spec:     server.JobSpec{Kind: "sweep-env", Bench: "hmmer", Size: "test", Step: 512},
			rule:     audit.RuleCoarseGrid,
			guilty:   true,
			severity: server.AuditWarn,
		},
		{
			name:   "coarse-env-grid innocent at slot resolution",
			spec:   server.JobSpec{Kind: "sweep-env", Bench: "hmmer", Size: "test", Step: 8},
			rule:   audit.RuleCoarseGrid,
			guilty: false,
		},
		{
			name:   "coarse-env-grid innocent when adaptive",
			spec:   server.JobSpec{Kind: "sweep-env", Bench: "hmmer", Size: "test", Step: 512, Adaptive: true},
			rule:   audit.RuleCoarseGrid,
			guilty: false,
		},
		{
			name:     "unrandomized-sensitive guilty run",
			spec:     server.JobSpec{Kind: "run", Bench: "hmmer", Size: "test", EnvBytes: 512},
			rule:     audit.RuleUnrandomized,
			guilty:   true,
			severity: server.AuditWarn,
		},
		{
			name:   "unrandomized-sensitive innocent randomize",
			spec:   server.JobSpec{Kind: "randomize", Bench: "hmmer", Size: "test", N: 16},
			rule:   audit.RuleUnrandomized,
			guilty: false,
		},
		{
			name:     "fixed-corunner-sensitive guilty pinned tenant",
			spec:     server.JobSpec{Kind: "randomize", Bench: "sjeng", Machine: "core2", Size: "test", N: 16, CoBench: "sjeng"},
			rule:     audit.RuleFixedCoRunner,
			guilty:   true,
			severity: server.AuditError,
		},
		{
			name:   "fixed-corunner-sensitive innocent randomized tenant",
			spec:   server.JobSpec{Kind: "randomize", Bench: "sjeng", Machine: "core2", Size: "test", N: 16, CoRandom: true},
			rule:   audit.RuleFixedCoRunner,
			guilty: false,
		},
		{
			name:   "fixed-corunner-sensitive innocent idle randomize",
			spec:   server.JobSpec{Kind: "randomize", Bench: "sjeng", Machine: "core2", Size: "test", N: 16},
			rule:   audit.RuleFixedCoRunner,
			guilty: false,
		},
		{
			name:     "idle-machine-only guilty serving context without interference",
			spec:     server.JobSpec{Kind: "randomize", Bench: "hmmer", Size: "test", N: 16, Context: "serving"},
			rule:     audit.RuleIdleMachine,
			guilty:   true,
			severity: server.AuditWarn,
		},
		{
			name:   "idle-machine-only innocent randomized tenant",
			spec:   server.JobSpec{Kind: "randomize", Bench: "hmmer", Size: "test", N: 16, CoRandom: true, Context: "serving"},
			rule:   audit.RuleIdleMachine,
			guilty: false,
		},
		{
			name:   "idle-machine-only innocent tenant sweep",
			spec:   server.JobSpec{Kind: "sweep-tenant", Bench: "hmmer", Size: "test", Context: "serving"},
			rule:   audit.RuleIdleMachine,
			guilty: false,
		},
		{
			name:   "idle-machine-only innocent without context claim",
			spec:   server.JobSpec{Kind: "randomize", Bench: "hmmer", Size: "test", N: 16},
			rule:   audit.RuleIdleMachine,
			guilty: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := a.AuditSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			hits := findRule(fs, tc.rule)
			if tc.guilty {
				if len(hits) != 1 {
					t.Fatalf("want 1 %s finding, got %d (all: %v)", tc.rule, len(hits), fs)
				}
				if hits[0].Severity != tc.severity {
					t.Errorf("severity = %s, want %s", hits[0].Severity, tc.severity)
				}
				if hits[0].Suppressed {
					t.Error("finding unexpectedly suppressed")
				}
			} else if len(hits) != 0 {
				t.Fatalf("want no %s finding, got %v", tc.rule, hits)
			}
		})
	}
}

// TestSingleSetupSubsumesFewSetups: n=1 is charged as single-setup only,
// not double-flagged.
func TestSingleSetupSubsumesFewSetups(t *testing.T) {
	fs, err := testAuditor().AuditSpec(server.JobSpec{Kind: "randomize", Bench: "hmmer", Size: "test", N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := findRule(fs, audit.RuleFewSetups); len(got) != 0 {
		t.Errorf("n=1 also flagged %s: %v", audit.RuleFewSetups, got)
	}
	if got := findRule(fs, audit.RuleSingleSetup); len(got) != 1 {
		t.Errorf("n=1 not flagged %s: %v", audit.RuleSingleSetup, fs)
	}
}

// TestMinSetupsGrounding pins the derived threshold: the constant the
// findings cite must be what stats.MinSamples computes, and the paper-sized
// defaults must be innocent.
func TestMinSetupsGrounding(t *testing.T) {
	want := stats.MinSamples(audit.SigmaSetup, audit.TargetHalfWidth, audit.Level)
	if got := audit.MinSetups(); got != want {
		t.Fatalf("MinSetups() = %d, want %d", got, want)
	}
	if audit.MinSetups() > 16 {
		t.Fatalf("MinSetups() = %d exceeds the default randomize n=16: the defaults would audit guilty", audit.MinSetups())
	}
	if audit.MinSetups() < 2 {
		t.Fatalf("MinSetups() = %d is degenerate", audit.MinSetups())
	}
}

// TestSuppression: an audit_allow field keeps the finding visible but
// non-gating, and unknown rules in a file directive are rejected at parse.
func TestSuppression(t *testing.T) {
	a := testAuditor()
	fs, err := a.AuditSpec(server.JobSpec{
		Kind: "randomize", Bench: "hmmer", Size: "test", N: 1,
		AuditAllow: []string{audit.RuleSingleSetup},
	})
	if err != nil {
		t.Fatal(err)
	}
	hits := findRule(fs, audit.RuleSingleSetup)
	if len(hits) != 1 {
		t.Fatalf("suppressed finding not reported: %v", fs)
	}
	if !hits[0].Suppressed {
		t.Error("finding not marked suppressed")
	}
	if hits[0].Gating() {
		t.Error("suppressed finding still gating")
	}
}

// TestIncommensurableMachines: pooling randomize estimates across
// different cache geometries is flagged; same machine, or sweeps across
// machines (legitimate bias studies), are not.
func TestIncommensurableMachines(t *testing.T) {
	a := testAuditor()
	rand := func(m string) audit.Spec {
		return audit.Spec{Spec: server.JobSpec{Kind: "randomize", Bench: "hmmer", Size: "test", N: 16, Machine: m}}
	}
	sweep := func(m string) audit.Spec {
		return audit.Spec{Spec: server.JobSpec{Kind: "sweep-env", Bench: "hmmer", Size: "test", Step: 8, Machine: m}}
	}

	rep, err := a.AuditSet([]audit.Spec{rand("p4"), rand("core2")})
	if err != nil {
		t.Fatal(err)
	}
	var hit bool
	for _, e := range rep.Findings {
		if e.Finding.Rule == audit.RuleIncommensurable {
			hit = true
			if e.Finding.Severity != server.AuditError {
				t.Errorf("severity = %s, want error", e.Finding.Severity)
			}
		}
	}
	if !hit {
		t.Fatalf("p4-vs-core2 randomize pool not flagged: %s", rep)
	}
	if rep.OK {
		t.Error("report verdict ok despite gating finding")
	}

	rep, err = a.AuditSet([]audit.Spec{rand("core2"), rand("core2")})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Findings {
		if e.Finding.Rule == audit.RuleIncommensurable {
			t.Fatalf("same-machine pool flagged: %v", e)
		}
	}

	rep, err = a.AuditSet([]audit.Spec{sweep("p4"), sweep("core2")})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Findings {
		if e.Finding.Rule == audit.RuleIncommensurable {
			t.Fatalf("cross-machine sweep comparison flagged (it is a legitimate bias study): %v", e)
		}
	}
}

// TestInconclusiveInterval: the result-level rule fires on a stored
// randomize result whose interval spans 1.0, and not on a conclusive one.
func TestInconclusiveInterval(t *testing.T) {
	a := testAuditor()
	mk := func(conclusive bool) *server.Result {
		return &server.Result{
			Kind: server.KindRandomize,
			Spec: server.JobSpec{Kind: "randomize", Bench: "hmmer", Size: "test", N: 16},
			Randomize: &server.RandomizeResult{
				Estimate: core.RobustEstimate{
					TInterval: stats.Interval{Lo: 0.995, Hi: 1.012, Level: 0.95},
				},
				Conclusive: conclusive,
			},
		}
	}
	fs, err := a.AuditResult(mk(false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := findRule(fs, audit.RuleInconclusive); len(got) != 1 || got[0].Severity != server.AuditError {
		t.Fatalf("inconclusive result not charged: %v", fs)
	}
	fs, err = a.AuditResult(mk(true), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := findRule(fs, audit.RuleInconclusive); len(got) != 0 {
		t.Fatalf("conclusive result charged: %v", got)
	}
}

// TestSpecFileParsing covers the file format: comment stripping, the
// three payload shapes, and //audit:allow directives.
func TestSpecFileParsing(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	t.Run("single spec with comments and allow", func(t *testing.T) {
		p := write("one.json", `// a deliberately guilty spec, kept as a suppression demo
//audit:allow single-setup
{"kind": "randomize", "bench": "hmmer", "size": "test", "n": 1}
`)
		ins, err := audit.LoadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(ins) != 1 || len(ins[0].Allow) != 1 || ins[0].Allow[0] != audit.RuleSingleSetup {
			t.Fatalf("parsed %+v", ins)
		}
		fs, err := testAuditor().AuditSpec(ins[0].Spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(findRule(fs, audit.RuleSingleSetup)) != 1 {
			t.Fatalf("guilty spec not flagged: %v", fs)
		}
		rep, err := testAuditor().AuditSet(ins)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK || rep.Suppressed != 1 {
			t.Fatalf("file-level allow not applied: %s", rep)
		}
	})

	t.Run("array", func(t *testing.T) {
		p := write("many.json", `[
  {"kind": "randomize", "bench": "hmmer", "size": "test", "n": 16},
  {"kind": "randomize", "bench": "hmmer", "size": "test", "n": 16, "machine": "p4"}
]
`)
		ins, err := audit.LoadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(ins) != 2 {
			t.Fatalf("want 2 specs, got %d", len(ins))
		}
		if !strings.HasSuffix(ins[1].File, "[1]") {
			t.Errorf("array subject = %q", ins[1].File)
		}
	})

	t.Run("result envelope", func(t *testing.T) {
		p := write("result.json", `{
  "kind": "randomize",
  "spec": {"kind": "randomize", "bench": "hmmer", "size": "test", "n": 16},
  "randomize": {"estimate": {"TInterval": {"Lo": 0.99, "Hi": 1.01, "Level": 0.95}}, "conclusive": false}
}
`)
		ins, err := audit.LoadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(ins) != 1 || ins[0].Result == nil {
			t.Fatalf("result payload not detected: %+v", ins)
		}
		rep, err := testAuditor().AuditSet(ins)
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK {
			t.Fatalf("inconclusive stored result audited ok: %s", rep)
		}
	})

	t.Run("bare allow rejected", func(t *testing.T) {
		p := write("bare.json", "//audit:allow\n{}\n")
		if _, err := audit.LoadFile(p); err == nil || !strings.Contains(err.Error(), "needs a rule id") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("unknown allow rule rejected", func(t *testing.T) {
		p := write("bad.json", "//audit:allow not-a-rule\n{}\n")
		if _, err := audit.LoadFile(p); err == nil || !strings.Contains(err.Error(), "unknown rule") {
			t.Fatalf("err = %v", err)
		}
	})
}

// TestStoredResults: every result in the daemon's golden wire corpus,
// whatever its payload kind, loads as one result envelope carrying its
// spec, and audits without error.
func TestStoredResults(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "server", "testdata", "golden", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 11 {
		t.Fatalf("found %d golden results, want 11", len(paths))
	}
	for _, p := range paths {
		ins, err := audit.LoadFile(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if len(ins) != 1 || ins[0].Result == nil || ins[0].Spec.Kind != ins[0].Result.Kind {
			t.Errorf("%s: loaded %+v, want one result envelope", p, ins)
			continue
		}
		if _, err := server.RenderText(ins[0].Result); err != nil {
			t.Errorf("%s: %v", p, err)
		}
		if _, err := testAuditor().AuditSet(ins); err != nil {
			t.Errorf("%s: audit: %v", p, err)
		}
	}
}

// TestAuditVsExecution is the consistency gate between the static auditor
// and the execution path: a spec that audits clean executes to a
// confidence-interval-bearing report, and a guilty-but-suppressed spec
// still runs — suppression is judgment metadata, not a behavior change.
func TestAuditVsExecution(t *testing.T) {
	if testing.Short() {
		t.Skip("executes randomize measurements")
	}
	a := testAuditor()
	ctx := context.Background()

	clean := server.JobSpec{Kind: "randomize", Bench: "libquantum", Size: "test", N: audit.MinSetups()}
	fs, err := a.AuditSpec(clean)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		if f.Gating() {
			t.Fatalf("clean spec gated: %v", f)
		}
	}
	canonical, err := clean.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := server.Execute(ctx, runner, canonical, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	est := res.Randomize.Estimate
	if est.HierCI.Level != 0.95 || est.HierCI.Lo == 0 || est.N != audit.MinSetups() {
		t.Fatalf("clean spec did not produce a CI-bearing estimate: %+v", est)
	}
	if est.Test.Verdict == "" {
		t.Fatalf("estimate missing speedup-test verdict: %+v", est.Test)
	}

	guilty := server.JobSpec{
		Kind: "randomize", Bench: "libquantum", Size: "test", N: 1,
		AuditAllow: []string{audit.RuleSingleSetup},
	}
	fs, err = a.AuditSpec(guilty)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		if f.Gating() {
			t.Fatalf("suppressed spec still gated: %v", f)
		}
	}
	canonical, err = guilty.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(canonical.AuditAllow) != 0 {
		t.Fatalf("Canonicalize kept audit_allow (would perturb content keys): %+v", canonical)
	}
	res, err = server.Execute(ctx, runner, canonical, nil, nil)
	if err != nil {
		t.Fatalf("suppressed guilty spec refused to run: %v", err)
	}
	if res.Randomize == nil || res.Randomize.Estimate.N != 1 {
		t.Fatalf("suppressed guilty spec result malformed: %+v", res.Randomize)
	}
}

// TestReportRendering pins the report's text shape.
func TestReportRendering(t *testing.T) {
	a := testAuditor()
	rep, err := a.AuditSet([]audit.Spec{
		{File: "g.json", Spec: server.JobSpec{Kind: "randomize", Bench: "hmmer", Size: "test", N: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	if !strings.Contains(out, "g.json: error single-setup:") {
		t.Errorf("missing finding line:\n%s", out)
	}
	if !strings.Contains(out, "FAIL (1 gating)") {
		t.Errorf("missing verdict:\n%s", out)
	}
}
