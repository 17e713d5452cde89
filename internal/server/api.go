// Package server implements biaslabd, the measurement-as-a-service daemon:
// an HTTP/JSON front end over the measurement core with a bounded worker
// pool, a job queue, a persistent content-addressed result store, and live
// per-point progress streaming over SSE.
//
// The serving contract mirrors the repository's measurement contract:
// a job's result is a pure function of its canonical specification. Jobs
// are therefore keyed by a content hash of the canonicalized spec;
// identical requests are deduplicated in flight (the same singleflight
// discipline the Runner applies to compiles and links) and served from the
// store on completion, byte-identical to a fresh run. The store reuses
// internal/journal's fsynced JSONL discipline, so cached results survive
// restarts and a daemon killed mid-sweep resumes from its per-job
// checkpoint journal without re-measuring completed points.
//
// This file defines the wire types. They are shared verbatim by the
// daemon's handlers, the client package, and cmd/biaslab's -json output,
// so the CLI and the daemon cannot drift apart.
package server

import (
	"encoding/json"
	"errors"
	"fmt"

	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/core"
	"biaslab/internal/experiments"
	"biaslab/internal/machine"
)

// Job kinds accepted by POST /v1/jobs.
const (
	KindRun         = "run"
	KindSweepEnv    = "sweep-env"
	KindSweepLink   = "sweep-link"
	KindSweepPad    = "sweep-pad"
	KindSweepBase   = "sweep-base"
	KindSweepTenant = "sweep-tenant"
	KindRandomize   = "randomize"
	KindExperiment  = "experiment"
)

// JobSpec is one measurement request. Fields that do not apply to a kind
// are zeroed by Canonicalize so that two requests for the same work always
// hash to the same content key, however sloppily they were filled in.
type JobSpec struct {
	// Kind selects the measurement: run, sweep-env, sweep-pad, sweep-base,
	// sweep-link, sweep-tenant, randomize, or experiment.
	Kind string `json:"kind"`
	// Size is the workload size: test, small (default), or ref.
	Size string `json:"size,omitempty"`
	// Bench names the benchmark (all kinds except experiment).
	Bench string `json:"bench,omitempty"`
	// Machine names the hardware model (default core2).
	Machine string `json:"machine,omitempty"`
	// Personality selects the compiler personality: gcc (default) or icc.
	Personality string `json:"personality,omitempty"`
	// Level is the optimization level for run jobs (default O2); sweeps
	// and randomize always measure O2 against O3.
	Level string `json:"level,omitempty"`
	// EnvBytes is the environment size for run jobs (default 512).
	EnvBytes uint64 `json:"env_bytes,omitempty"`
	// Step is the environment-size step for sweep-env jobs (default 128).
	Step uint64 `json:"step,omitempty"`
	// Orders is the number of random link orders for sweep-link jobs
	// (default 16, at most 1024).
	Orders int `json:"orders,omitempty"`
	// N is the number of randomized setups for randomize jobs (default 16,
	// at most 4096; the maximum when Tol is set).
	N int `json:"n,omitempty"`
	// Tol switches randomize jobs to adaptive sampling: stop when the 95%
	// CI half-width falls below Tol.
	Tol float64 `json:"tol,omitempty"`
	// Seed seeds randomized choices for sweep-link and randomize jobs
	// (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Experiment is the artifact id (F1..F9, T1..T4) for experiment jobs.
	Experiment string `json:"experiment,omitempty"`
	// Adaptive switches sweep-env, sweep-pad and sweep-base jobs to the
	// oracle-guided adaptive sweep: measure predicted transition boundaries
	// plus verification points, interpolate verified plateaus. Results are
	// byte-identical to the dense sweep when the oracle's predictions
	// verify, but the content key still differs (omitempty keeps existing
	// dense keys stable).
	Adaptive bool `json:"adaptive,omitempty"`
	// CoBench pins a co-running benchmark on the shared machine for run
	// and randomize jobs: the multi-tenant interference channel. Empty
	// means an idle machine (every pre-existing spec). sweep-tenant jobs
	// sweep the co-runner identity over the canonical panel, so they
	// reject the field.
	CoBench string `json:"co_bench,omitempty"`
	// CoLevel is the co-runner's own optimization level (default O2 when
	// a co-runner is in play; zeroed otherwise).
	CoLevel string `json:"co_level,omitempty"`
	// Quantum is the co-run interleave granularity in retired instructions
	// (defaulted when a co-runner is in play; zeroed otherwise).
	Quantum uint64 `json:"quantum,omitempty"`
	// CoRandom switches randomize jobs to treat the co-runner as one more
	// randomized nuisance factor, drawn per setup from the canonical
	// panel (idle included). Mutually exclusive with CoBench — fixing the
	// tenant is exactly the crime randomization removes.
	CoRandom bool `json:"co_random,omitempty"`
	// Context names the deployment context the conclusion claims to
	// generalize to (e.g. "serving"). It is judgment metadata for the
	// auditor — a "serving" claim backed only by idle-machine setups is
	// flagged — not a measurement parameter, so Canonicalize drops it and
	// it never perturbs the content key.
	Context string `json:"context,omitempty"`
	// AuditAllow suppresses the named audit rules for this spec (the
	// spec-field form of an //audit:allow directive). Suppressions are
	// metadata about how the experiment is judged, not about what it
	// measures, so Canonicalize drops the field and it never perturbs the
	// content key: a suppressed and an unsuppressed spec for the same work
	// share one cached result.
	AuditAllow []string `json:"audit_allow,omitempty"`
}

// Upper bounds on the untrusted point counts a spec may request. Execution
// and shard planning allocate per point before measuring anything, so an
// unbounded count would let one submission exhaust the daemon's memory.
// Every shipped spec stays far below them.
const (
	maxOrders = 1024
	maxN      = 4096
)

// Defaults Canonicalize gives the counts and seeds a spec leaves unset.
// They are the only copy: the channel table's parameters carry them to
// Canonicalize and the sweep flags, and the spec compiler returns
// canonical jobs.
const (
	DefaultStep   = 128 // sweep-env grid step in bytes
	DefaultOrders = 16  // sweep-link random link orders
	DefaultSeed   = 1   // sweep-link and randomize seed; 0 means this default
	DefaultN      = 16  // randomize setups; n=1 would be the single-setup crime
)

// parseSize maps a spec size to the bench workload size.
func parseSize(s string) (bench.Size, error) {
	switch s {
	case "test":
		return bench.SizeTest, nil
	case "small":
		return bench.SizeSmall, nil
	case "ref":
		return bench.SizeRef, nil
	}
	return 0, fmt.Errorf("unknown size %q (want test, small or ref)", s)
}

// Canonicalize validates spec, applies defaults, and zeroes every field
// the kind does not use, returning the canonical spec that content-keying
// hashes. Two specs that request the same work canonicalize identically.
func (spec JobSpec) Canonicalize() (JobSpec, error) {
	c := JobSpec{Kind: spec.Kind, Size: spec.Size}
	if c.Size == "" {
		c.Size = "small"
	}
	if _, err := parseSize(c.Size); err != nil {
		return JobSpec{}, err
	}

	needBench := func() error {
		c.Bench = spec.Bench
		if c.Bench == "" {
			return fmt.Errorf("%s job needs a bench", c.Kind)
		}
		if _, ok := bench.ByName(c.Bench); !ok {
			return fmt.Errorf("unknown benchmark %q", c.Bench)
		}
		c.Machine = spec.Machine
		if c.Machine == "" {
			c.Machine = "core2"
		}
		if _, ok := machine.ConfigByName(c.Machine); !ok {
			return fmt.Errorf("unknown machine %q", c.Machine)
		}
		c.Personality = spec.Personality
		if c.Personality == "" {
			c.Personality = "gcc"
		}
		if _, err := compiler.ParsePersonality(c.Personality); err != nil {
			return err
		}
		return nil
	}

	// A sweep takes its channel's swept-mode parameters; its grid is
	// otherwise canonical, so two requests for one sweep share a key.
	if ch, ok := ChannelByKind(spec.Kind); ok {
		if err := needBench(); err != nil {
			return JobSpec{}, err
		}
		if ch.refuse != nil {
			if err := ch.refuse(spec); err != nil {
				return JobSpec{}, err
			}
		}
		for _, p := range ch.Params {
			if p.Applies(ModeSwept) {
				if err := p.canonicalize(&c, spec); err != nil {
					return JobSpec{}, err
				}
			}
		}
		return c, nil
	}

	// A co-runner in play canonicalizes with explicit co-run defaults, so a
	// defaulted and an explicit spec for the same co-run share one content
	// key. Without one the co-run fields stay zeroed (an idle machine,
	// byte-identical to every pre-existing spec).
	coRun := func() error {
		if spec.CoBench == "" {
			return nil
		}
		return canonicalize(&c, spec, paramCoBench, paramCoLevel, paramQuantum)
	}

	switch spec.Kind {
	case KindRun:
		if err := needBench(); err != nil {
			return JobSpec{}, err
		}
		c.Level = spec.Level
		if c.Level == "" {
			c.Level = "O2"
		}
		if _, err := compiler.ParseLevel(c.Level); err != nil {
			return JobSpec{}, err
		}
		if err := canonicalize(&c, spec, paramEnvBytes); err != nil {
			return JobSpec{}, err
		}
		if err := coRun(); err != nil {
			return JobSpec{}, err
		}
	case KindRandomize:
		if err := needBench(); err != nil {
			return JobSpec{}, err
		}
		if err := canonicalize(&c, spec, paramN); err != nil {
			return JobSpec{}, err
		}
		if spec.Tol < 0 {
			return JobSpec{}, fmt.Errorf("negative tol %v", spec.Tol)
		}
		c.Tol = spec.Tol
		if err := canonicalize(&c, spec, paramSeed); err != nil {
			return JobSpec{}, err
		}
		if spec.CoRandom && spec.CoBench != "" {
			return JobSpec{}, fmt.Errorf("co_random randomizes the co-runner; co_bench fixes it — pick one")
		}
		if spec.CoRandom {
			if spec.Tol > 0 {
				return JobSpec{}, fmt.Errorf("co_random does not compose with adaptive sampling (tol); use a fixed n")
			}
			c.CoRandom = true
			if err := canonicalize(&c, spec, paramCoLevel, paramQuantum); err != nil {
				return JobSpec{}, err
			}
		} else if err := coRun(); err != nil {
			return JobSpec{}, err
		}
	case KindExperiment:
		c.Experiment = spec.Experiment
		if !validExperiment(c.Experiment) {
			return JobSpec{}, fmt.Errorf("unknown experiment %q (want one of %v)", c.Experiment, experiments.IDs())
		}
	case "":
		return JobSpec{}, fmt.Errorf("job spec needs a kind")
	default:
		return JobSpec{}, fmt.Errorf("unknown job kind %q", spec.Kind)
	}
	return c, nil
}

func validExperiment(id string) bool {
	for _, known := range experiments.IDs() {
		if id == known {
			return true
		}
	}
	return false
}

// compilerConfig builds the compiler config a canonical spec names.
func (spec JobSpec) compilerConfig() (compiler.Config, error) {
	cfg := compiler.Config{Level: compiler.O2, Personality: compiler.GCC}
	if spec.Personality != "" {
		p, err := compiler.ParsePersonality(spec.Personality)
		if err != nil {
			return cfg, err
		}
		cfg.Personality = p
	}
	if spec.Level != "" {
		l, err := compiler.ParseLevel(spec.Level)
		if err != nil {
			return cfg, err
		}
		cfg.Level = l
	}
	return cfg, nil
}

// JobState is the lifecycle state of a job.
type JobState string

// Job lifecycle states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// States lists every job state in lifecycle order — the iteration order of
// the by-state metrics, fixed so /metrics output is deterministic.
func States() []JobState {
	return []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}
}

// ErrorDetail is the typed failure of a job, carrying the measurement
// pipeline stage and the exact setup when the failure was a
// *core.MeasurementError — the setup is attached because the paper's whole
// point is that setups are not interchangeable.
type ErrorDetail struct {
	Message   string `json:"message"`
	Stage     string `json:"stage,omitempty"`
	Benchmark string `json:"benchmark,omitempty"`
	Setup     string `json:"setup,omitempty"`
	Attempts  int    `json:"attempts,omitempty"`
}

// newErrorDetail classifies err, unwrapping a *core.MeasurementError into
// its typed fields.
func newErrorDetail(err error) *ErrorDetail {
	d := &ErrorDetail{Message: err.Error()}
	var me *core.MeasurementError
	if errors.As(err, &me) {
		d.Stage = me.Stage.String()
		d.Benchmark = me.Benchmark
		d.Setup = me.Setup.String()
		d.Attempts = me.Attempts
	}
	return d
}

// Progress is a job's per-point progress. Grid jobs (sweeps and fixed-n
// randomize) announce Total before their first point; run and
// adaptive-sampling randomize jobs set it on completion; experiment jobs
// leave it 0. A job that finished done with a non-zero Total has Done ==
// Total.
type Progress struct {
	// Done counts completed points, fresh and replayed together.
	Done int `json:"done"`
	// Replayed counts the subset of Done served from the checkpoint
	// journal of an earlier, interrupted run of the same job.
	Replayed int `json:"replayed"`
	// Total is the number of points the job completes, when known.
	Total int `json:"total,omitempty"`
}

// AuditSeverity grades an audit finding.
type AuditSeverity string

// Audit severities: errors gate (CLI exit 1, ?strict=1 rejection), warnings
// inform.
const (
	AuditError AuditSeverity = "error"
	AuditWarn  AuditSeverity = "warn"
)

// AuditFinding is one benchmarking crime flagged against a spec — the wire
// form shared by the audit CLI, the daemon's submit response, and cluster
// shard assignments (which inherit the submitting coordinator's verdict).
type AuditFinding struct {
	// Rule is the stable rule id (e.g. "single-setup").
	Rule     string        `json:"rule"`
	Severity AuditSeverity `json:"severity"`
	Message  string        `json:"message"`
	// Suppressed marks a finding covered by an //audit:allow directive or
	// the spec's audit_allow field: still reported, no longer gating.
	Suppressed bool `json:"suppressed,omitempty"`
}

// Gating reports whether the finding blocks under strict gating: an
// unsuppressed error.
func (f AuditFinding) Gating() bool {
	return f.Severity == AuditError && !f.Suppressed
}

// SpecAuditor statically audits a job spec for benchmarking crimes before
// any cycles are spent on it. Implemented by internal/audit; the
// indirection exists because the audit package builds on this package's
// spec and wire types (the same inversion as ShardRunner).
type SpecAuditor interface {
	AuditSpec(spec JobSpec) ([]AuditFinding, error)
}

// AuditRejectedError is the typed rejection of a criminal spec under
// ?strict=1, carrying the findings so the HTTP layer can return them to
// the client.
type AuditRejectedError struct {
	Findings []AuditFinding
}

func (e *AuditRejectedError) Error() string {
	n := 0
	for _, f := range e.Findings {
		if f.Gating() {
			n++
		}
	}
	return fmt.Sprintf("server: audit rejected spec under strict mode: %d gating finding(s)", n)
}

// JobStatus is the GET /v1/jobs/{id} response.
type JobStatus struct {
	ID       string       `json:"id"`
	Key      string       `json:"key"`
	Spec     JobSpec      `json:"spec"`
	State    JobState     `json:"state"`
	Cached   bool         `json:"cached"`
	Progress Progress     `json:"progress"`
	Error    *ErrorDetail `json:"error,omitempty"`
	// Audit carries the findings recorded against the spec at submission.
	Audit []AuditFinding `json:"audit,omitempty"`
}

// SubmitResponse is the POST /v1/jobs response.
type SubmitResponse struct {
	ID  string `json:"id"`
	Key string `json:"key"`
	// Cached is true when the result was already in the store: the job is
	// born done and performed zero new measurements.
	Cached bool `json:"cached"`
	// InFlight is true when an identical job was already queued or running
	// and this submission was deduplicated onto it.
	InFlight bool     `json:"in_flight"`
	State    JobState `json:"state"`
	// Audit lists the benchmarking crimes the daemon's auditor flagged in
	// the spec (empty when clean or no auditor is attached). Findings are
	// advisory unless the submission used ?strict=1, which rejects specs
	// with unsuppressed error findings instead of running them.
	Audit []AuditFinding `json:"audit,omitempty"`
}

// Event is one SSE progress event on GET /v1/jobs/{id}/events.
type Event struct {
	// Type is "state" or "point".
	Type string `json:"type"`
	// State accompanies state events.
	State JobState `json:"state,omitempty"`
	// Key is the completed point's checkpoint key (point events).
	Key string `json:"key,omitempty"`
	// Replayed marks a point served from the checkpoint journal.
	Replayed bool `json:"replayed,omitempty"`
	// Done/Total snapshot the job's progress at the event.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Error accompanies failed state events.
	Error *ErrorDetail `json:"error,omitempty"`
}

// RunResult is the result payload of a run job.
type RunResult struct {
	Benchmark string           `json:"benchmark"`
	Size      string           `json:"size"`
	Setup     string           `json:"setup"`
	Cycles    uint64           `json:"cycles"`
	Checksum  uint64           `json:"checksum"`
	Counters  machine.Counters `json:"counters"`
}

// EnvSweepResult is the result payload of a sweep-env job.
type EnvSweepResult struct {
	Benchmark string          `json:"benchmark"`
	Machine   string          `json:"machine"`
	Points    []core.EnvPoint `json:"points"`
	// Adaptive carries the oracle-guided sweep's measurement ledger when the
	// job ran adaptively; nil for dense sweeps.
	Adaptive *core.AdaptiveSweepStats `json:"adaptive,omitempty"`
	Report   core.BiasReport          `json:"report"`
}

// ChannelSweepResult is the result payload of a Scalar channel's sweep
// (sweep-pad, sweep-base) over its canonical grid.
type ChannelSweepResult struct {
	Benchmark string `json:"benchmark"`
	Machine   string `json:"machine"`
	// Channel is the channel's name: "pad" or "base".
	Channel string              `json:"channel"`
	Points  []core.ChannelPoint `json:"points"`
	// Adaptive carries the comparator-guided sweep's measurement ledger
	// when the job ran adaptively; nil for dense sweeps.
	Adaptive *core.AdaptiveSweepStats `json:"adaptive,omitempty"`
	Report   core.BiasReport          `json:"report"`
}

// LinkSweepResult is the result payload of a sweep-link job.
type LinkSweepResult struct {
	Benchmark string           `json:"benchmark"`
	Machine   string           `json:"machine"`
	Points    []core.LinkPoint `json:"points"`
	Report    core.BiasReport  `json:"report"`
}

// TenantSweepResult is the result payload of a sweep-tenant job: the
// subject's O2-vs-O3 comparison repeated with each panel co-runner
// sharing the machine, idle first.
type TenantSweepResult struct {
	Benchmark string `json:"benchmark"`
	Machine   string `json:"machine"`
	// CoLevel and Quantum are the fixed co-run parameters of the panel.
	CoLevel string             `json:"co_level"`
	Quantum uint64             `json:"quantum"`
	Points  []core.TenantPoint `json:"points"`
	Report  core.BiasReport    `json:"report"`
}

// RandomizeResult is the result payload of a randomize job.
type RandomizeResult struct {
	Estimate core.RobustEstimate `json:"estimate"`
	// Conclusive reports whether the interval excludes 1.0.
	Conclusive bool `json:"conclusive"`
}

// ExperimentResult is the result payload of an experiment job: one
// regenerated artifact, text and CSV.
type ExperimentResult struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Text  string `json:"text"`
	CSV   string `json:"csv"`
}

// Result is the envelope every job resolves to: the kind, the canonical
// spec, and exactly one payload. Its canonical encoding (EncodeResult) is
// what the store persists and what GET /v1/results/{key} serves verbatim,
// so a cached result is byte-identical to a fresh one.
type Result struct {
	Kind         string              `json:"kind"`
	Spec         JobSpec             `json:"spec"`
	Run          *RunResult          `json:"run,omitempty"`
	EnvSweep     *EnvSweepResult     `json:"env_sweep,omitempty"`
	LinkSweep    *LinkSweepResult    `json:"link_sweep,omitempty"`
	ChannelSweep *ChannelSweepResult `json:"channel_sweep,omitempty"`
	TenantSweep  *TenantSweepResult  `json:"tenant_sweep,omitempty"`
	Randomize    *RandomizeResult    `json:"randomize,omitempty"`
	Experiment   *ExperimentResult   `json:"experiment,omitempty"`
}

// EncodeResult renders the canonical encoding of a result: compact JSON
// with fields in declaration order. Every byte served for a key — fresh,
// cached, or across a daemon restart — comes from this encoding.
func EncodeResult(r *Result) ([]byte, error) {
	return json.Marshal(r)
}

// DecodeResult parses a stored result.
func DecodeResult(raw []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("server: decoding result: %w", err)
	}
	return &r, nil
}

// BenchmarkInfo is one catalog entry.
type BenchmarkInfo struct {
	Name   string `json:"name"`
	Spec   string `json:"spec"`
	Kernel string `json:"kernel"`
}

// ChannelInfo is one bias channel in the catalog: the registry entry's
// wire form.
type ChannelInfo struct {
	Name string `json:"name"`
	// Kind is the job kind that sweeps the channel.
	Kind   string `json:"kind"`
	Factor string `json:"factor"`
	// Oracle marks channels `biaslab predict` can analyze statically.
	Oracle bool `json:"oracle,omitempty"`
}

// Catalog is the GET /v1/catalog response and the biaslab list -json
// output: what this lab can measure.
type Catalog struct {
	Benchmarks  []BenchmarkInfo `json:"benchmarks"`
	Machines    []string        `json:"machines"`
	Channels    []ChannelInfo   `json:"channels"`
	Experiments []string        `json:"experiments"`
}

// NewCatalog builds the catalog from the built-in suite, machine models,
// channel registry, and experiment registry.
func NewCatalog() *Catalog {
	c := &Catalog{
		Machines:    []string{"p4", "core2", "m5"},
		Experiments: experiments.IDs(),
	}
	for _, b := range bench.All() {
		c.Benchmarks = append(c.Benchmarks, BenchmarkInfo{Name: b.Name, Spec: b.Spec, Kernel: b.Kernel})
	}
	for _, ch := range channels {
		c.Channels = append(c.Channels, ChannelInfo{Name: ch.Name, Kind: ch.JobKind, Factor: ch.Factor, Oracle: ch.Plan != nil})
	}
	return c
}
