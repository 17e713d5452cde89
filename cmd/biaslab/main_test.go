package main

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"biaslab/internal/server"
)

func TestExitCodeMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{errors.New("experiment failed"), 1},
		{usageErrorf("bad flag"), 2},
		{fmt.Errorf("wrapped: %w", usageErrorf("bad flag")), 2},
		{context.DeadlineExceeded, 124},
		{fmt.Errorf("sweep: %w", context.DeadlineExceeded), 124},
		{context.Canceled, 130},
		{fmt.Errorf("sweep: %w", context.Canceled), 130},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("exitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"no subcommand", nil},
		{"unknown subcommand", []string{"frobnicate"}},
		{"bad size", []string{"-size", "enormous", "list"}},
		{"resume without journal", []string{"-resume", "list"}},
		{"bad experiment id", []string{"experiment"}},
	}
	for _, tc := range cases {
		if got := run(tc.args); got != 2 {
			t.Errorf("%s: run(%v) = %d, want exit 2", tc.name, tc.args, got)
		}
	}
}

// TestJournalReuseRefused: pointing -journal at a file with recorded points
// without -resume must refuse rather than silently replaying someone
// else's measurements.
func TestJournalReuseRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte(`{"key":"k","val":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run([]string{"-journal", path, "list"}); got != 2 {
		t.Errorf("non-empty journal without -resume: exit %d, want 2", got)
	}
	// With -resume the same invocation proceeds.
	if got := run([]string{"-journal", path, "-resume", "list"}); got != 0 {
		t.Errorf("journalled list with -resume: exit %d, want 0", got)
	}
	// A fresh (empty) journal needs no -resume.
	empty := filepath.Join(t.TempDir(), "fresh.jsonl")
	if got := run([]string{"-journal", empty, "list"}); got != 0 {
		t.Errorf("fresh journal: exit %d, want 0", got)
	}
}

// captureRun invokes the CLI entry point with stdout captured.
func captureRun(t *testing.T, args ...string) (string, int) {
	t.Helper()
	return captureOutput(t, &os.Stdout, args...)
}

// TestServerModeByteIdentical is the end-to-end acceptance check at the CLI
// level: the same sweep run locally and against a live biaslabd daemon must
// print byte-identical output — in rendered text, CSV, and canonical JSON —
// and the resubmission must be served from the daemon's cache.
func TestServerModeByteIdentical(t *testing.T) {
	srv, err := server.New(server.Config{DataDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sweep := []string{"sweep-env", "-bench", "hmmer", "-machine", "p4", "-step", "512"}
	for _, mode := range []struct {
		name string
		flag []string
	}{
		{"text", nil},
		{"csv", []string{"-csv"}},
		{"json", []string{"-json"}},
	} {
		local, code := captureRun(t, append(append([]string{"-size", "test"}, mode.flag...), sweep...)...)
		if code != 0 {
			t.Fatalf("%s: local run exited %d", mode.name, code)
		}
		remote, code := captureRun(t, append(append([]string{"-size", "test", "-server", ts.URL}, mode.flag...), sweep...)...)
		if code != 0 {
			t.Fatalf("%s: remote run exited %d", mode.name, code)
		}
		if local != remote {
			t.Errorf("%s output differs between local and -server:\n-- local --\n%s-- remote --\n%s", mode.name, local, remote)
		}
		if local == "" {
			t.Errorf("%s output empty", mode.name)
		}
	}
	// All three remote invocations asked for the same job: one execution,
	// two cache hits, zero extra measurements.
	m := srv.MetricsSnapshot()
	if m.CacheMisses != 1 || m.CacheHits != 2 {
		t.Errorf("daemon saw %d misses / %d hits, want 1/2", m.CacheMisses, m.CacheHits)
	}

	// list renders identically from the local catalog and the daemon's.
	localList, _ := captureRun(t, "list")
	remoteList, code := captureRun(t, "-server", ts.URL, "list")
	if code != 0 || localList != remoteList {
		t.Errorf("list differs (exit %d):\n%s\nvs\n%s", code, localList, remoteList)
	}
	jsonList, code := captureRun(t, "-json", "list")
	if code != 0 || !strings.HasPrefix(jsonList, `{"benchmarks":[`) {
		t.Errorf("-json list (exit %d): %.80s", code, jsonList)
	}
}

// TestServerModeTenantSweepByteIdentical: the co-run interference sweep,
// run locally and against a live daemon, prints byte-identical output in
// every rendering — the same end-to-end guarantee the other channels have.
func TestServerModeTenantSweepByteIdentical(t *testing.T) {
	srv, err := server.New(server.Config{DataDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sweep := []string{"sweep-tenant", "-bench", "sjeng", "-machine", "core2"}
	for _, mode := range []struct {
		name string
		flag []string
	}{
		{"text", nil},
		{"csv", []string{"-csv"}},
		{"json", []string{"-json"}},
	} {
		local, code := captureRun(t, append(append([]string{"-size", "test"}, mode.flag...), sweep...)...)
		if code != 0 {
			t.Fatalf("%s: local run exited %d", mode.name, code)
		}
		remote, code := captureRun(t, append(append([]string{"-size", "test", "-server", ts.URL}, mode.flag...), sweep...)...)
		if code != 0 {
			t.Fatalf("%s: remote run exited %d", mode.name, code)
		}
		if local != remote {
			t.Errorf("%s output differs between local and -server:\n-- local --\n%s-- remote --\n%s", mode.name, local, remote)
		}
		if local == "" {
			t.Errorf("%s output empty", mode.name)
		}
	}
	m := srv.MetricsSnapshot()
	if m.CacheMisses != 1 || m.CacheHits != 2 {
		t.Errorf("daemon saw %d misses / %d hits, want 1/2", m.CacheMisses, m.CacheHits)
	}
}

// TestServerFlagValidation: flag combinations that cannot work must exit 2.
func TestServerFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-server", "http://localhost:1", "-journal", "j.jsonl", "sweep-env"},
		{"-csv", "-json", "list"},
		{"-json", "causal"},
		{"-server", "http://localhost:1", "vet"},
	}
	for _, args := range cases {
		if _, code := captureRun(t, args...); code != 2 {
			t.Errorf("run(%v) exited %d, want 2", args, code)
		}
	}
}
