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
	"strings"

	"biaslab/internal/bench"
	"biaslab/internal/machine"
	"biaslab/internal/server"
)

// ChannelSpec is one channel block: a mode (swept, randomized or fixed)
// plus parameters under their JobSpec JSON names. Which parameters a block
// may state in which mode is its channel's row (server.Channel.Params);
// Compile rejects mismatches rather than ignoring them.
type ChannelSpec struct {
	Mode     string `json:"mode"`
	Step     uint64 `json:"step,omitempty"`
	EnvBytes uint64 `json:"env_bytes,omitempty"`
	Orders   int    `json:"orders,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	Adaptive bool   `json:"adaptive,omitempty"`
	CoBench  string `json:"co_bench,omitempty"`
	CoLevel  string `json:"co_level,omitempty"`
	Quantum  uint64 `json:"quantum,omitempty"`
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
		reg, ok := server.ChannelByName(name)
		if !ok {
			var known []string
			for _, ch := range server.Channels() {
				known = append(known, ch.Name)
			}
			return nil, fmt.Errorf("spec: unknown channel %q (registry: %v)", name, known)
		}
		if err := checkChannel(reg, f.Channels[name]); err != nil {
			return nil, err
		}
	}

	// Every job takes the parameters a fixed block may state, a sweep job
	// also its channel's sweep parameters; Canonicalize zeroes the ones a
	// job's kind does not use. A fixed tenant under an otherwise randomized
	// experiment is compiled faithfully, not silently repaired: flagging it
	// is the fixed-corunner-sensitive audit rule's job.
	base := server.JobSpec{Size: f.Size, Bench: f.Bench, Machine: f.Machine, Personality: f.Personality}
	randomized := false
	for _, reg := range server.Channels() {
		ch := f.Channels[reg.Name]
		for _, p := range reg.Params {
			if p.Applies(server.ModeFixed) {
				p.Copy(&base, ch.stated())
			}
		}
		if ch.Mode == server.ModeRandomized {
			randomized = true
			if reg.OptIn != nil {
				*reg.OptIn(&base) = true
			}
		}
	}
	if f.Randomize != nil && !randomized {
		return nil, fmt.Errorf("spec: the \"randomize\" block would be dropped: no channel is randomized, so the file compiles to no randomize job")
	}
	var jobs []server.JobSpec
	// Registry order, not map order: compilation must be deterministic.
	for _, reg := range server.Channels() {
		if ch := f.Channels[reg.Name]; ch.Mode == server.ModeSwept {
			job := base
			job.Kind = reg.JobKind
			// A swept block states only parameters its sweep takes
			// (checkChannel); the rest copy as the zeros base holds.
			for _, p := range reg.Params {
				p.Copy(&job, ch.stated())
			}
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
	// randomized channel's parameters go to the jobs that vary it and are
	// not checked here.
	for _, job := range jobs {
		for _, reg := range server.Channels() {
			if ch := f.Channels[reg.Name]; ch.Mode == server.ModeFixed {
				for _, p := range reg.Params {
					if val := p.Value(ch.stated()); p.Stated(ch.stated()) && p.Value(job) != val {
						raw, _ := json.Marshal(val)
						return nil, fmt.Errorf("spec: channel %q (fixed): %s %s would be dropped: the file compiles to a %s job, which does not take it", reg.Name, p.Name, raw, job.Kind)
					}
				}
			}
		}
	}
	// A randomize job draws exactly the channels the registry marks
	// Randomized, an opt-in channel only when the job opts in. A file that
	// declares a different randomized set would report an experiment it
	// did not run.
	if randomized {
		for _, reg := range server.Channels() {
			mode := f.Channels[reg.Name].Mode
			drawn := reg.Randomized && (reg.OptIn == nil || *reg.OptIn(&base))
			switch {
			case mode == server.ModeRandomized && !drawn:
				return nil, fmt.Errorf("spec: channel %q (randomized): a randomize job never draws the %s; sweep it or declare it fixed", reg.Name, reg.Factor)
			case mode != server.ModeRandomized && drawn:
				if mode == "" {
					mode = "unmentioned, so fixed"
				}
				return nil, fmt.Errorf("spec: channel %q (%s): a randomize job draws the %s on every setup; declare it randomized", reg.Name, mode, reg.Factor)
			}
		}
	}
	return jobs, nil
}

// stated returns the parameters a channel block states, in the JobSpec
// fields of the same JSON names.
func (ch ChannelSpec) stated() server.JobSpec {
	return server.JobSpec{
		Step: ch.Step, EnvBytes: ch.EnvBytes, Orders: ch.Orders, Seed: ch.Seed, Adaptive: ch.Adaptive,
		CoBench: ch.CoBench, CoLevel: ch.CoLevel, Quantum: ch.Quantum,
	}
}

// checkChannel validates one channel block: a legal mode, and only the
// parameters its channel takes in that mode.
func checkChannel(reg server.Channel, ch ChannelSpec) error {
	switch ch.Mode {
	case server.ModeSwept, server.ModeRandomized, server.ModeFixed:
	case "":
		return fmt.Errorf("spec: channel %q: missing mode (swept, randomized or fixed)", reg.Name)
	default:
		return fmt.Errorf("spec: channel %q: unknown mode %q (want swept, randomized or fixed)", reg.Name, ch.Mode)
	}
	stated := ch.stated()
	// Every parameter any channel takes: a block may state only its own.
	for _, other := range server.Channels() {
		for _, p := range other.Params {
			if !p.Stated(stated) || takes(reg, p.Name, ch.Mode) {
				continue
			}
			if ch.Mode == server.ModeRandomized && takes(reg, p.Name, server.ModeFixed) {
				return fmt.Errorf("spec: channel %q (randomized): %s would fix the %s; drop it or use mode %q", reg.Name, p.Name, reg.Name, server.ModeFixed)
			}
			return fmt.Errorf("spec: channel %q (%s): parameter %q does not apply", reg.Name, ch.Mode, p.Name)
		}
	}
	for _, p := range reg.Params {
		if err := p.Check(stated); err != nil {
			return fmt.Errorf("spec: channel %q: %w", reg.Name, err)
		}
	}
	return nil
}

// takes reports whether reg takes the parameter name in mode.
func takes(reg server.Channel, name, mode string) bool {
	for _, p := range reg.Params {
		if p.Name == name && p.Applies(mode) {
			return true
		}
	}
	return false
}
