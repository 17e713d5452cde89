package spec_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"biaslab/internal/server"
	"biaslab/internal/spec"
	"biaslab/internal/tenancy"
)

// minimal returns a parseable file body with the given channels block.
func minimal(channels string) []byte {
	return []byte(`{"bench": "hmmer", "machine": "core2", "size": "test", "channels": {` + channels + `}}`)
}

func mustCompile(t *testing.T, raw []byte) []server.JobSpec {
	t.Helper()
	f, err := spec.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := f.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestParseCommentsAndAllow: whole-line comments are stripped and
// //audit:allow directives fold into the audit_allow field, so the
// suppression rides onto every compiled job.
func TestParseCommentsAndAllow(t *testing.T) {
	raw := []byte(`// a comment
//audit:allow single-setup
{"bench": "hmmer", "size": "test",
 // interior comment
 "channels": {"env": {"mode": "swept"}}}`)
	f, err := spec.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.AuditAllow) != 1 || f.AuditAllow[0] != "single-setup" {
		t.Fatalf("AuditAllow = %v, want [single-setup]", f.AuditAllow)
	}
	jobs, err := f.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || len(jobs[0].AuditAllow) != 1 {
		t.Fatalf("compiled jobs = %+v, want one job carrying the suppression", jobs)
	}
}

// TestParseBareAllow: a directive that names no rule suppresses nothing,
// so it is an error here exactly as it is for `biaslab audit`.
func TestParseBareAllow(t *testing.T) {
	raw := append([]byte("//audit:allow\n"), minimal(`"env": {"mode": "swept"}`)...)
	if _, err := spec.Parse(raw); err == nil || !strings.Contains(err.Error(), "needs a rule id") {
		t.Fatalf("Parse = %v, want a missing rule id error", err)
	}
}

// TestCompileIsCanonical: every compiled job is already canonical, with
// only the judgment metadata Canonicalize drops put back.
func TestCompileIsCanonical(t *testing.T) {
	var jobs []server.JobSpec
	for _, chans := range []string{
		randomizedSet + `, "tenant": {"mode": "randomized"}`,
		`"env": {"mode": "swept"}, "link": {"mode": "swept", "orders": 4}, "pad": {"mode": "swept"}, "base": {"mode": "swept", "adaptive": true}, "tenant": {"mode": "swept"}`,
		`"env": {"mode": "fixed"}`,
	} {
		jobs = append(jobs, mustCompile(t, []byte(`{"bench": "hmmer", "context": "serving", "audit_allow": ["single-setup"], "channels": {`+chans+`}}`))...)
	}
	for _, j := range jobs {
		c, err := j.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		c.Context, c.AuditAllow = "serving", []string{"single-setup"}
		if !reflect.DeepEqual(c, j) {
			t.Errorf("compiled %s job is not canonical:\n got %+v\nwant %+v", j.Kind, j, c)
		}
	}
}

// TestParseUnknownField: a typo must be an error, never silently ignored.
func TestParseUnknownField(t *testing.T) {
	_, err := spec.Parse([]byte(`{"bench": "hmmer", "chanels": {}}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestIsDeclarative(t *testing.T) {
	if !spec.IsDeclarative(minimal(`"env": {"mode": "swept"}`)) {
		t.Error("declarative file not detected")
	}
	if !spec.IsDeclarative([]byte("// comment\n" + string(minimal(`"env": {"mode": "swept"}`)))) {
		t.Error("commented declarative file not detected")
	}
	if spec.IsDeclarative([]byte(`{"kind": "randomize", "bench": "hmmer", "n": 16}`)) {
		t.Error("plain JobSpec misdetected as declarative")
	}
	if spec.IsDeclarative([]byte(`not json`)) {
		t.Error("garbage misdetected as declarative")
	}
}

// TestCompileSweptOrder: one sweep job per swept channel, emitted in
// registry order regardless of map order, canonical: Canonicalize's
// defaults filled in explicitly.
func TestCompileSweptOrder(t *testing.T) {
	jobs := mustCompile(t, minimal(
		`"tenant": {"mode": "swept"}, "link": {"mode": "swept"}, "env": {"mode": "swept"}`))
	var kinds []string
	for _, j := range jobs {
		kinds = append(kinds, j.Kind)
	}
	want := []string{server.KindSweepEnv, server.KindSweepLink, server.KindSweepTenant}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("kinds = %v, want %v (registry order)", kinds, want)
	}
	if jobs[0].Step != server.DefaultStep {
		t.Errorf("env step = %d, want default %d", jobs[0].Step, server.DefaultStep)
	}
	if jobs[1].Orders != server.DefaultOrders || jobs[1].Seed != server.DefaultSeed {
		t.Errorf("link orders/seed = %d/%d, want defaults %d/%d",
			jobs[1].Orders, jobs[1].Seed, server.DefaultOrders, server.DefaultSeed)
	}
	if jobs[2].CoLevel != "O2" || jobs[2].Quantum != tenancy.DefaultQuantum {
		t.Errorf("tenant co_level/quantum = %q/%d, want defaults O2/%d",
			jobs[2].CoLevel, jobs[2].Quantum, tenancy.DefaultQuantum)
	}
}

// randomizedSet declares the channels every randomize job draws.
const randomizedSet = `"env": {"mode": "randomized"}, "link": {"mode": "randomized"}, "pad": {"mode": "randomized"}`

// TestCompileRandomized: the randomized channels produce exactly one
// randomize job; a randomized tenant sets co_random on it.
func TestCompileRandomized(t *testing.T) {
	jobs := mustCompile(t, minimal(
		randomizedSet+`, "tenant": {"mode": "randomized", "quantum": 1024}`))
	if len(jobs) != 1 {
		t.Fatalf("got %d jobs, want 1", len(jobs))
	}
	j := jobs[0]
	if j.Kind != server.KindRandomize || !j.CoRandom {
		t.Fatalf("job = %+v, want randomize with co_random", j)
	}
	if j.N != server.DefaultN || j.Seed != server.DefaultSeed {
		t.Errorf("n/seed = %d/%d, want defaults %d/%d", j.N, j.Seed, server.DefaultN, server.DefaultSeed)
	}
	if j.Quantum != 1024 {
		t.Errorf("quantum = %d, want 1024", j.Quantum)
	}
	if j.CoLevel != "O2" {
		t.Errorf("co_level = %q, want O2", j.CoLevel)
	}
}

// TestCompileFixedTenantOnRandomize: a fixed co_bench under an otherwise
// randomized experiment compiles faithfully — the crime is the auditor's
// to flag, not the compiler's to repair.
func TestCompileFixedTenantOnRandomize(t *testing.T) {
	jobs := mustCompile(t, minimal(
		randomizedSet+`, "tenant": {"mode": "fixed", "co_bench": "milc"}`))
	if len(jobs) != 1 || jobs[0].CoBench != "milc" || jobs[0].CoRandom {
		t.Fatalf("jobs = %+v, want one randomize job with co_bench=milc", jobs)
	}
}

// TestCompileAllFixed: nothing swept or randomized lowers to a single
// fixed-setup run carrying the fixed channels' values.
func TestCompileAllFixed(t *testing.T) {
	jobs := mustCompile(t, minimal(
		`"env": {"mode": "fixed", "env_bytes": 768}, "tenant": {"mode": "fixed", "co_bench": "lbm"}`))
	if len(jobs) != 1 {
		t.Fatalf("got %d jobs, want 1", len(jobs))
	}
	j := jobs[0]
	if j.Kind != server.KindRun || j.EnvBytes != 768 || j.CoBench != "lbm" {
		t.Fatalf("job = %+v, want run with env_bytes=768 co_bench=lbm", j)
	}
	if j.Quantum != tenancy.DefaultQuantum {
		t.Errorf("quantum = %d, want default %d", j.Quantum, tenancy.DefaultQuantum)
	}
}

// TestCompileErrors: the schema rejects, with a named reason, everything
// it cannot faithfully lower.
func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		raw  string
		want string
	}{
		{"missing bench", `{"channels": {"env": {"mode": "swept"}}}`, "missing bench"},
		{"unknown bench", `{"bench": "nope", "channels": {"env": {"mode": "swept"}}}`, "unknown benchmark"},
		{"unknown machine", `{"bench": "hmmer", "machine": "z80", "channels": {"env": {"mode": "swept"}}}`, "unknown machine"},
		{"empty channels", `{"bench": "hmmer", "channels": {}}`, "empty channels"},
		{"unknown channel", `{"bench": "hmmer", "channels": {"moonphase": {"mode": "swept"}}}`, "unknown channel"},
		{"missing mode", `{"bench": "hmmer", "channels": {"env": {}}}`, "missing mode"},
		{"unknown mode", `{"bench": "hmmer", "channels": {"env": {"mode": "jittered"}}}`, "unknown mode"},
		{"inapplicable param", `{"bench": "hmmer", "channels": {"link": {"mode": "swept", "step": 8}}}`, "does not apply"},
		{"randomized tenant pinned", `{"bench": "hmmer", "channels": {"tenant": {"mode": "randomized", "co_bench": "mcf"}}}`, "co_bench would fix the tenant"},
		{"unknown co-runner", `{"bench": "hmmer", "channels": {"tenant": {"mode": "fixed", "co_bench": "doom"}}}`, "unknown co-runner"},
		{"fixed env under a sweep", `{"bench": "mcf", "machine": "core2", "size": "test", "channels": {"env": {"mode": "fixed", "env_bytes": 1024}, "pad": {"mode": "swept"}}}`, `channel "env" (fixed): env_bytes 1024 would be dropped: the file compiles to a sweep-pad job`},
		{"fixed tenant under a sweep", `{"bench": "mcf", "machine": "core2", "size": "test", "channels": {"tenant": {"mode": "fixed", "co_bench": "lbm"}, "env": {"mode": "swept"}}}`, `channel "tenant" (fixed): co_bench "lbm" would be dropped: the file compiles to a sweep-env job`},
		{"tenant level without a co-runner", `{"bench": "mcf", "channels": {"tenant": {"mode": "fixed", "co_level": "O3"}}}`, `channel "tenant" (fixed): co_level "O3" would be dropped: the file compiles to a run job`},
		{"fixed env under randomize", `{"bench": "mcf", "machine": "core2", "size": "test", "channels": {"env": {"mode": "fixed", "env_bytes": 1024}, "link": {"mode": "randomized"}}}`, `channel "env" (fixed): env_bytes 1024 would be dropped: the file compiles to a randomize job`},
		{"base randomized", `{"bench": "mcf", "channels": {` + randomizedSet + `, "base": {"mode": "randomized"}}}`, `channel "base" (randomized): a randomize job never draws the image base`},
		{"randomize block without a randomized channel", `{"bench": "mcf", "machine": "core2", "size": "test", "channels": {"env": {"mode": "swept"}}, "randomize": {"n": 32, "seed": 7}}`, `the "randomize" block would be dropped: no channel is randomized`},
		{"only link randomized", `{"bench": "mcf", "channels": {"link": {"mode": "randomized"}}}`, `channel "env" (unmentioned, so fixed): a randomize job draws the environment size on every setup`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := spec.Parse([]byte(tc.raw))
			if err != nil {
				t.Fatal(err)
			}
			err = f.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestChannelBlockFieldsAreTableParams: a channel block's parameter fields
// are exactly the parameters the channel table's rows take, under the same
// JSON names, so the schema neither offers a parameter no channel takes
// nor lacks one a channel does.
func TestChannelBlockFieldsAreTableParams(t *testing.T) {
	var fields []string
	ty := reflect.TypeOf(spec.ChannelSpec{})
	for i := 0; i < ty.NumField(); i++ {
		if name, _, _ := strings.Cut(ty.Field(i).Tag.Get("json"), ","); name != "mode" {
			fields = append(fields, name)
		}
	}
	seen := map[string]bool{}
	var params []string
	for _, ch := range server.Channels() {
		for _, p := range ch.Params {
			if !seen[p.Name] {
				seen[p.Name] = true
				params = append(params, p.Name)
			}
		}
	}
	sort.Strings(fields)
	sort.Strings(params)
	if !reflect.DeepEqual(fields, params) {
		t.Errorf("channel block fields %v, channel table parameters %v", fields, params)
	}
}
