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
//	    "env":    {"mode": "swept", "step": 128},
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
// so out loud. "context" declares the deployment context the conclusion
// claims (judged by the auditor, never measured); "audit_allow" carries
// rule suppressions onto every compiled job.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
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

// CRITICAL: DEFAULT VALUES ARE EXPLICIT AND NON-ZERO. A channel block
// that omits a parameter gets the same default the equivalent CLI flag
// has always had — NOT the Go zero value. In particular:
//
//	step     128  (not 0! a zero step would be an empty sweep)
//	orders   16   (not 0!)
//	seed     1    (not 0! seed 0 means "default", never "zero stream")
//	n        16   (not 0, and not 1 — n=1 is the single-setup crime)
//	co_level "O2" (not ""! the co-runner is a program, it has a level)
//
// The quantum's default (tenancy.DefaultQuantum) is applied by
// JobSpec.Canonicalize, the single place co-run defaults live.
const (
	DefaultStep   = 128
	DefaultOrders = 16
	DefaultSeed   = 1
	DefaultN      = 16
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
// something else. Whole-line `//` comments are allowed, matching the
// audit spec-file convention, and `//audit:allow <rule>` directives fold
// into the file's audit_allow field so they ride onto every compiled job.
func Parse(raw []byte) (*File, error) {
	stripped, allow := stripComments(raw)
	var f File
	dec := json.NewDecoder(bytes.NewReader(stripped))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	f.AuditAllow = append(f.AuditAllow, allow...)
	return &f, nil
}

// allowPrefix introduces a suppression directive, as in audit spec files.
const allowPrefix = "//audit:allow"

// stripComments drops whole-line `//` comments and collects
// //audit:allow directives. Rule ids are not validated here — the audit
// package owns the catalog (and imports this one, so it cannot be asked);
// unknown ids are caught the moment the file is audited.
func stripComments(raw []byte) ([]byte, []string) {
	var out bytes.Buffer
	var allow []string
	for _, line := range strings.Split(string(raw), "\n") {
		t := strings.TrimSpace(line)
		if strings.HasPrefix(t, allowPrefix) {
			if rule := strings.TrimSpace(strings.TrimPrefix(t, allowPrefix)); rule != "" {
				allow = append(allow, rule)
			}
			continue
		}
		if strings.HasPrefix(t, "//") {
			continue
		}
		out.WriteString(line)
		out.WriteString("\n")
	}
	return out.Bytes(), allow
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
	stripped, _ := stripComments(raw)
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

// Compile lowers the declarative file into the jobs that realize it, in
// registry order: one sweep job per swept channel, then one randomize job
// absorbing every randomized channel, then — when nothing is swept or
// randomized — the single fixed-setup run the file is honest enough to
// admit to. Every compiled spec round-trips through Canonicalize here, so
// a file that compiles is a file the daemon will accept.
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

	base := server.JobSpec{
		Size:        f.Size,
		Bench:       f.Bench,
		Machine:     f.Machine,
		Personality: f.Personality,
		Context:     f.Context,
		AuditAllow:  f.AuditAllow,
	}
	var jobs []server.JobSpec
	randomized := false
	// Registry order, not map order: compilation must be deterministic.
	for _, reg := range channels.All() {
		ch, ok := f.Channels[reg.Name]
		if !ok {
			continue // unmentioned = fixed at defaults
		}
		switch ch.Mode {
		case ModeRandomized:
			randomized = true
		case ModeSwept:
			job := base
			job.Kind = reg.JobKind
			switch reg.Name {
			case "env":
				job.Step = ch.Step
				if job.Step == 0 {
					job.Step = DefaultStep
				}
				job.Adaptive = ch.Adaptive
			case "link":
				job.Orders = ch.Orders
				if job.Orders == 0 {
					job.Orders = DefaultOrders
				}
				job.Seed = ch.Seed
				if job.Seed == 0 {
					job.Seed = DefaultSeed
				}
			case "pad", "base":
				job.Adaptive = ch.Adaptive
			case "tenant":
				job.CoLevel = ch.CoLevel
				job.Quantum = ch.Quantum
			}
			jobs = append(jobs, job)
		}
	}
	envCh := f.Channels["env"]
	tenantCh := f.Channels["tenant"]
	if randomized {
		job := base
		job.Kind = server.KindRandomize
		job.N = DefaultN
		job.Seed = DefaultSeed
		if f.Randomize != nil {
			if f.Randomize.N != 0 {
				job.N = f.Randomize.N
			}
			if f.Randomize.Seed != 0 {
				job.Seed = f.Randomize.Seed
			}
			job.Tol = f.Randomize.Tol
		}
		if tenantCh.Mode == ModeRandomized {
			job.CoRandom = true
			job.CoLevel = tenantCh.CoLevel
			job.Quantum = tenantCh.Quantum
		} else if tenantCh.Mode == ModeFixed && tenantCh.CoBench != "" {
			// A fixed tenant under an otherwise randomized experiment:
			// exactly what the fixed-corunner-sensitive audit rule exists
			// to catch. Compiled faithfully, not silently repaired.
			job.CoBench = tenantCh.CoBench
			job.CoLevel = tenantCh.CoLevel
			job.Quantum = tenantCh.Quantum
		}
		jobs = append(jobs, job)
	} else if len(jobs) == 0 {
		// Nothing swept, nothing randomized: one fixed-setup run.
		job := base
		job.Kind = server.KindRun
		job.EnvBytes = envCh.EnvBytes
		if tenantCh.CoBench != "" {
			job.CoBench = tenantCh.CoBench
			job.CoLevel = tenantCh.CoLevel
			job.Quantum = tenantCh.Quantum
		}
		jobs = append(jobs, job)
	}
	// Only a run job carries env_bytes: sweeps run at the default env and
	// randomize draws env itself, so anywhere else the value would be
	// dropped without a word.
	if envCh.EnvBytes != 0 {
		for _, job := range jobs {
			if job.Kind != server.KindRun {
				return nil, fmt.Errorf("spec: channel \"env\" (fixed): env_bytes %d would be dropped: the file compiles to a %s job, which does not take a fixed env size", envCh.EnvBytes, job.Kind)
			}
		}
	}
	for i, job := range jobs {
		if _, err := job.Canonicalize(); err != nil {
			return nil, fmt.Errorf("spec: compiled job %d (%s): %w", i, job.Kind, err)
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
