package audit_test

import (
	"reflect"
	"testing"

	"biaslab/internal/audit"
	"biaslab/internal/bench"
	"biaslab/internal/core"
	"biaslab/internal/machine"
	"biaslab/internal/server"
)

// TestPlanMemoMatchesFreshAuditor: one long-lived Auditor, whose memo
// serves every plan after the first audit of a cell, reports exactly the
// findings a fresh Auditor reports for each spec — including the
// unrandomized-sensitive message, which quotes the spec's own env_bytes.
func TestPlanMemoMatchesFreshAuditor(t *testing.T) {
	shared := testAuditor()
	runs := 0
	for _, b := range []string{"bzip2", "milc", "libquantum"} {
		for _, m := range []string{"core2", "p4", "m5"} {
			for i, env := range []uint64{256, 1000, 3000} {
				level := []string{"O2", "O3", "O2"}[i]
				step := []uint64{64, 256, 512}[i]
				for _, spec := range []server.JobSpec{
					{Kind: server.KindRun, Size: "test", Bench: b, Machine: m, Level: level, EnvBytes: env},
					{Kind: server.KindSweepEnv, Size: "test", Bench: b, Machine: m, Step: step, EnvBytes: env},
				} {
					got, err := shared.AuditSpec(spec)
					if err != nil {
						t.Fatal(err)
					}
					want, err := testAuditor().AuditSpec(spec)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s %s@%s env_bytes=%d: memoized findings\n%+v\nfresh findings\n%+v", spec.Kind, b, m, env, got, want)
					}
					if spec.Kind == server.KindRun {
						runs++
					}
				}
			}
		}
	}
	// Every run plans env, pad and base; a sweep-env's env plan is the
	// run's. So the memo holds three plans per (bench, machine) cell, and
	// every other audit was served from it.
	if n, cells := audit.PlanMemoLen(shared), 3*3; n != 3*cells {
		t.Errorf("memo holds %d plans after %d run audits over %d cells, want %d", n, runs, cells, 3*cells)
	}
}

// TestPlanMemoFollowsReregisteredMachine: re-registering a machine name
// with another geometry must never serve a plan made for the old one. The
// m5 geometry under the name core2 removes milc's pad and base findings,
// so a memo keyed on the name alone would fail here.
func TestPlanMemoFollowsReregisteredMachine(t *testing.T) {
	r := core.NewRunner(bench.SizeTest)
	runner := func(bench.Size) *core.Runner { return r }
	a := audit.New(runner)
	spec := server.JobSpec{Kind: server.KindRun, Size: "test", Bench: "milc", Machine: "core2", EnvBytes: 512}

	before, err := a.AuditSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterMachine("core2", machine.M5O3()); err != nil {
		t.Fatal(err)
	}
	after, err := a.AuditSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := audit.New(runner).AuditSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, fresh) {
		t.Errorf("after re-registering core2 the memoized auditor reports\n%+v\na fresh one reports\n%+v", after, fresh)
	}
	if reflect.DeepEqual(before, after) {
		t.Errorf("the m5 geometry did not change milc's findings (%d findings both times); the case proves nothing", len(after))
	}
}
