// Package spec implements declarative bias-on-demand experiment files:
// one JSON document that states, per bias channel, whether the factor is
// swept (expose the bias), randomized (the paper's remedy), or fixed (the
// crime, stated honestly), and compiles into the server.JobSpec jobs that
// realize it. The compiler is deliberately dumb — every channel block maps
// onto existing job kinds — so a declarative file can never request work
// the daemon, the cluster, and the auditor do not already understand.
//
// Schema, by example:
//
//	{
//	  "bench": "hmmer",
//	  "machine": "core2",
//	  "size": "test",
//	  "context": "serving",
//	  "channels": {
//	    "env":    {"mode": "randomized"},
//	    "link":   {"mode": "randomized"},
//	    "pad":    {"mode": "randomized"},
//	    "base":   {"mode": "fixed"},
//	    "tenant": {"mode": "swept", "co_level": "O2", "quantum": 4096}
//	  },
//	  "randomize": {"n": 16, "seed": 1}
//	}
//
// Channels left out of the map are implicitly fixed at their defaults —
// an unmentioned factor IS a fixed factor; the schema just lets you say
// so out loud. That holds under randomize too: a randomize job draws
// exactly the channels the registry marks Randomized (the tenant only
// when it is declared randomized, which sets co_random), so a file that
// randomizes anything must declare that set, no more and no less.
// "context" declares the deployment context the conclusion claims
// (judged by the auditor, never measured); "audit_allow" carries rule
// suppressions onto every compiled job.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"biaslab/internal/bench"
	"biaslab/internal/channels"
	"biaslab/internal/machine"
	"biaslab/internal/server"
)

// Channel modes.
const (
	ModeSwept      = "swept"
	ModeRandomized = "randomized"
	ModeFixed      = "fixed"
)

// ChannelSpec is one channel block: a mode plus the channel's parameters.
// Which parameters are legal depends on the channel; Validate rejects
// mismatches rather than ignoring them.
type ChannelSpec struct {
	// Mode is swept, randomized, or fixed.
	Mode string `json:"mode"`
	// Step is the env sweep's grid step (env, swept; default 128).
	Step uint64 `json:"step,omitempty"`
	// EnvBytes fixes the environment size (env, fixed; default 512).
	EnvBytes uint64 `json:"env_bytes,omitempty"`
	// Orders and Seed parameterize the link sweep (link, swept).
	Orders int    `json:"orders,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
	// Adaptive selects the oracle/comparator-guided sweep (env, pad,
	// base; swept).
	Adaptive bool `json:"adaptive,omitempty"`
	// CoBench pins the co-runner (tenant, fixed — the interference
	// crime).
	CoBench string `json:"co_bench,omitempty"`
	// CoLevel and Quantum are the co-run parameters (tenant, any mode).
	CoLevel string `json:"co_level,omitempty"`
	Quantum uint64 `json:"quantum,omitempty"`
}

// RandomizeSpec parameterizes the one randomize job that absorbs every
// randomized channel.
type RandomizeSpec struct {
	N    int     `json:"n,omitempty"`
	Seed uint64  `json:"seed,omitempty"`
	Tol  float64 `json:"tol,omitempty"`
}

// File is one declarative bias-on-demand experiment.
type File struct {
	Bench       string                 `json:"bench"`
	Machine     string                 `json:"machine,omitempty"`
	Size        string                 `json:"size,omitempty"`
	Personality string                 `json:"personality,omitempty"`
	Context     string                 `json:"context,omitempty"`
	Channels    map[string]ChannelSpec `json:"channels"`
	Randomize   *RandomizeSpec         `json:"randomize,omitempty"`
	AuditAllow  []string               `json:"audit_allow,omitempty"`
}

// Parse decodes one declarative spec document. Unknown fields are errors:
// a bias experiment description with a typo in it must not silently mean
// something else. Whole-line `//` comments are allowed, as in every spec
// file (StripComments), and `//audit:allow <rule>` directives fold into
// the file's audit_allow field so they ride onto every compiled job.
func Parse(raw []byte) (*File, error) {
	stripped, allow, err := StripComments(raw)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	var f File
	dec := json.NewDecoder(bytes.NewReader(stripped))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	f.AuditAllow = append(f.AuditAllow, allow...)
	return &f, nil
}

// allowPrefix introduces a suppression directive.
const allowPrefix = "//audit:allow"

// StripComments is the one reader of spec-file comments, for declarative
// files and for the JobSpec and result files `biaslab audit` reads: it
// drops whole-line `//` comments (so string values containing slashes
// survive) and returns the rule ids of the //audit:allow directives. A
// directive without a rule id is an error. The ids themselves are not
// checked here: the audit package owns the catalog (and imports this one,
// so it cannot be asked), and checks them when it reads a file.
func StripComments(raw []byte) ([]byte, []string, error) {
	var out bytes.Buffer
	var allow []string
	for _, line := range strings.Split(string(raw), "\n") {
		t := strings.TrimSpace(line)
		if strings.HasPrefix(t, allowPrefix) {
			rule := strings.TrimSpace(strings.TrimPrefix(t, allowPrefix))
			if rule == "" {
				return nil, nil, fmt.Errorf("%s needs a rule id", allowPrefix)
			}
			allow = append(allow, rule)
			continue
		}
		if strings.HasPrefix(t, "//") {
			continue
		}
		out.WriteString(line)
		out.WriteString("\n")
	}
	return out.Bytes(), allow, nil
}

// ParseFile reads and decodes path.
func ParseFile(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// IsDeclarative reports whether raw looks like a declarative spec file
// (it has a "channels" object) rather than a plain JobSpec document.
func IsDeclarative(raw []byte) bool {
	var probe struct {
		Channels json.RawMessage `json:"channels"`
	}
	stripped, _, err := StripComments(raw)
	if err != nil {
		return false
	}
	if err := json.Unmarshal(stripped, &probe); err != nil {
		return false
	}
	return len(probe.Channels) > 0
}

// Validate checks the file against the channel registry and compiles it;
// the error carries the first problem found.
func (f *File) Validate() error {
	_, err := f.Compile()
	return err
}

// Compile lowers the declarative file into the canonical jobs that realize
// it, in registry order: one sweep job per swept channel, then one
// randomize job absorbing every randomized channel, then — when nothing is
// swept or randomized — the single fixed-setup run the file is honest
// enough to admit to. Every default comes from Canonicalize, so a file
// that compiles is a file the daemon will accept, and `spec expand` prints
// exactly the jobs that are keyed and run. Only the judgment metadata
// Canonicalize drops, context and audit_allow, is put back.
func (f *File) Compile() ([]server.JobSpec, error) {
	if f.Bench == "" {
		return nil, fmt.Errorf("spec: missing bench")
	}
	if _, ok := bench.ByName(f.Bench); !ok {
		return nil, fmt.Errorf("spec: unknown benchmark %q", f.Bench)
	}
	if f.Machine != "" {
		if _, ok := machine.ConfigByName(f.Machine); !ok {
			return nil, fmt.Errorf("spec: unknown machine %q", f.Machine)
		}
	}
	if len(f.Channels) == 0 {
		return nil, fmt.Errorf("spec: empty channels map: declare at least one channel as swept, randomized or fixed")
	}
	// Sorted, not map order: a file with several faults must always
	// report the same first one.
	names := make([]string, 0, len(f.Channels))
	for name := range f.Channels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := channels.ByName(name); !ok {
			return nil, fmt.Errorf("spec: unknown channel %q (registry: %v)", name, channels.Names())
		}
		if err := checkChannel(name, f.Channels[name]); err != nil {
			return nil, err
		}
	}

	// Each job takes every parameter the file states; checkChannel has
	// admitted only those that apply to their channel and mode, and
	// Canonicalize zeroes the ones a job's kind does not use.
	envCh := f.Channels["env"]
	tenantCh := f.Channels["tenant"]
	base := server.JobSpec{
		Size:        f.Size,
		Bench:       f.Bench,
		Machine:     f.Machine,
		Personality: f.Personality,
		EnvBytes:    envCh.EnvBytes,
		// A fixed tenant under an otherwise randomized experiment is
		// exactly what the fixed-corunner-sensitive audit rule exists to
		// catch: compiled faithfully, not silently repaired.
		CoBench:  tenantCh.CoBench,
		CoLevel:  tenantCh.CoLevel,
		Quantum:  tenantCh.Quantum,
		CoRandom: tenantCh.Mode == ModeRandomized,
	}
	var jobs []server.JobSpec
	randomized := false
	// Registry order, not map order: compilation must be deterministic.
	for _, reg := range channels.All() {
		switch ch := f.Channels[reg.Name]; ch.Mode {
		case ModeRandomized:
			randomized = true
		case ModeSwept:
			job := base
			job.Kind = reg.JobKind
			job.Step, job.Orders, job.Seed, job.Adaptive = ch.Step, ch.Orders, ch.Seed, ch.Adaptive
			jobs = append(jobs, job)
		}
	}
	if randomized {
		job := base
		job.Kind = server.KindRandomize
		if f.Randomize != nil {
			job.N, job.Seed, job.Tol = f.Randomize.N, f.Randomize.Seed, f.Randomize.Tol
		}
		jobs = append(jobs, job)
	} else if len(jobs) == 0 {
		// Nothing swept, nothing randomized: one fixed-setup run.
		job := base
		job.Kind = server.KindRun
		jobs = append(jobs, job)
	}
	for i, job := range jobs {
		c, err := job.Canonicalize()
		if err != nil {
			return nil, fmt.Errorf("spec: compiled job %d (%s): %w", i, job.Kind, err)
		}
		c.Context, c.AuditAllow = f.Context, f.AuditAllow
		jobs[i] = c
	}
	// A fixed parameter must reach every job; Canonicalize zeroes the ones
	// a job's kind does not take. Only a run job carries env_bytes (sweeps
	// run at the default env, randomize draws env itself), and the env,
	// pad, base and link sweeps, like any job without a co_bench, measure
	// an idle machine. Checked before the randomized set, so a fixed env
	// under randomize is named as a dropped env_bytes. A swept or
	// randomized tenant's co_level and quantum go to the jobs that draw
	// co-runners and are not checked here.
	fixedTenant := tenantCh.Mode == ModeFixed
	for _, job := range jobs {
		for _, p := range []struct {
			channel, name string
			val           any
			set, kept     bool
		}{
			{"env", "env_bytes", envCh.EnvBytes, envCh.EnvBytes != 0, job.EnvBytes == envCh.EnvBytes},
			{"tenant", "co_bench", strconv.Quote(tenantCh.CoBench), fixedTenant && tenantCh.CoBench != "", job.CoBench == tenantCh.CoBench},
			{"tenant", "co_level", strconv.Quote(tenantCh.CoLevel), fixedTenant && tenantCh.CoLevel != "", job.CoLevel == tenantCh.CoLevel},
			{"tenant", "quantum", tenantCh.Quantum, fixedTenant && tenantCh.Quantum != 0, job.Quantum == tenantCh.Quantum},
		} {
			if p.set && !p.kept {
				return nil, fmt.Errorf("spec: channel %q (fixed): %s %v would be dropped: the file compiles to a %s job, which does not take it", p.channel, p.name, p.val, job.Kind)
			}
		}
	}
	// A randomize job draws exactly the channels the registry marks
	// Randomized, the tenant only under co_random. A file that declares a
	// different randomized set would report an experiment it did not run.
	if randomized {
		for _, reg := range channels.All() {
			mode := f.Channels[reg.Name].Mode
			drawn := reg.Randomized && (reg.Name != "tenant" || base.CoRandom)
			switch {
			case mode == ModeRandomized && !drawn:
				return nil, fmt.Errorf("spec: channel %q (randomized): a randomize job never draws the %s; sweep it or declare it fixed", reg.Name, reg.Factor)
			case mode != ModeRandomized && drawn:
				if mode == "" {
					mode = "unmentioned, so fixed"
				}
				return nil, fmt.Errorf("spec: channel %q (%s): a randomize job draws the %s on every setup; declare it randomized", reg.Name, mode, reg.Factor)
			}
		}
	}
	return jobs, nil
}

// checkChannel validates one channel block: a legal mode, and only the
// parameters that mean something for (channel, mode).
func checkChannel(name string, ch ChannelSpec) error {
	switch ch.Mode {
	case ModeSwept, ModeRandomized, ModeFixed:
	case "":
		return fmt.Errorf("spec: channel %q: missing mode (swept, randomized or fixed)", name)
	default:
		return fmt.Errorf("spec: channel %q: unknown mode %q (want swept, randomized or fixed)", name, ch.Mode)
	}
	type field struct {
		set  bool
		name string
		ok   bool
	}
	fields := []field{
		{ch.Step != 0, "step", name == "env" && ch.Mode == ModeSwept},
		{ch.EnvBytes != 0, "env_bytes", name == "env" && ch.Mode == ModeFixed},
		{ch.Orders != 0, "orders", name == "link" && ch.Mode == ModeSwept},
		{ch.Seed != 0, "seed", name == "link" && ch.Mode == ModeSwept},
		{ch.Adaptive, "adaptive", (name == "env" || name == "pad" || name == "base") && ch.Mode == ModeSwept},
		{ch.CoBench != "", "co_bench", name == "tenant" && ch.Mode == ModeFixed},
		{ch.CoLevel != "", "co_level", name == "tenant"},
		{ch.Quantum != 0, "quantum", name == "tenant"},
	}
	if name == "tenant" && ch.Mode == ModeRandomized && ch.CoBench != "" {
		return fmt.Errorf("spec: channel \"tenant\" (randomized): co_bench would fix the tenant; drop it or use mode \"fixed\"")
	}
	for _, fl := range fields {
		if fl.set && !fl.ok {
			return fmt.Errorf("spec: channel %q (%s): parameter %q does not apply", name, ch.Mode, fl.name)
		}
	}
	if name == "tenant" && ch.CoBench != "" {
		if _, ok := bench.ByName(ch.CoBench); !ok {
			return fmt.Errorf("spec: channel \"tenant\": unknown co-runner benchmark %q", ch.CoBench)
		}
	}
	return nil
}
