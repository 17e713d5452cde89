package server

import (
	"flag"
	"fmt"
	"reflect"
	"slices"
	"strings"

	"biaslab/internal/analysis"
	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/core"
	"biaslab/internal/tenancy"
)

// Channel is one bias channel: a way this laboratory can perturb a setup
// without touching the code under test, defined by its row of the channel
// table. The catalog, Canonicalize, GridOf, the renderers, the sweep
// subcommands, `biaslab predict`, the declarative spec schema and the
// auditor all read the row and nothing else.
type Channel struct {
	Name    string // short id: env, link, pad, base, tenant
	JobKind string // the job kind, and CLI subcommand, that sweeps it
	Factor  string // the perturbed factor's phrase in bias reports
	// Randomized reports whether a randomize job draws the channel: on
	// every setup, or when OptIn is set only if the job sets the switch it
	// returns (the tenant's co_random). The image base is never drawn.
	Randomized bool
	OptIn      func(*JobSpec) *bool
	// Params are the JobSpec parameters the channel takes.
	Params []Param
	// Plan is the static planner behind predict, the adaptive sweep and
	// the auditor; nil when no oracle predicts the channel.
	Plan func(r *core.Runner, b *bench.Benchmark, setup core.Setup, values []uint64) (*analysis.EnvPlan, error)
	// Scalar is set for a code-layout channel swept over a canonical grid
	// and rendered through ChannelSweepResult.
	Scalar *Scalar

	grid    func(sweepIn) *Grid           // the sweep's grid
	payload func(*Result) (sweeper, bool) // the sweep's result payload
	refuse  func(JobSpec) error           // rejects a spec the sweep cannot honour
}

// Scalar is a code-layout channel's canonical grid (unperturbed value
// first), its core grid over those values, and the values' table header.
type Scalar struct {
	Header string
	Values func() []uint64
	Grid   func(setup core.Setup, values []uint64) core.Grid[core.ChannelPoint]
}

// channels is the channel table, in catalog order.
var channels = []Channel{
	{
		Name: "env", JobKind: KindSweepEnv, Factor: core.EnvFactor, Randomized: true,
		Params: []Param{paramStep, adaptiveParam("oracle-guided sweep: measure predicted boundaries, verify and interpolate plateaus"), paramEnvBytes},
		Plan:   core.PlanEnvSweep,
		grid: func(in sweepIn) *Grid {
			sizes := core.DefaultEnvSizes(in.spec.Step)
			return sweepGrid(in, core.EnvGrid(in.setup, sizes), sizes, func(res *Result, points []core.EnvPoint, adaptive *core.AdaptiveSweepStats, rep core.BiasReport) {
				res.EnvSweep = &EnvSweepResult{Benchmark: in.b.Name, Machine: in.spec.Machine, Points: points, Adaptive: adaptive, Report: rep}
			})
		},
		payload: func(r *Result) (sweeper, bool) { return r.EnvSweep, r.EnvSweep != nil },
	},
	{
		Name: "link", JobKind: KindSweepLink, Factor: core.LinkFactor, Randomized: true,
		Params: []Param{paramOrders, paramSeed},
		grid: func(in sweepIn) *Grid {
			cands := core.LinkCandidates(in.b.UnitNames(in.size), in.spec.Orders, in.spec.Seed)
			return sweepGrid(in, core.LinkGrid(in.setup, cands), nil, func(res *Result, points []core.LinkPoint, _ *core.AdaptiveSweepStats, rep core.BiasReport) {
				res.LinkSweep = &LinkSweepResult{Benchmark: in.b.Name, Machine: in.spec.Machine, Points: points, Report: rep}
			})
		},
		payload: func(r *Result) (sweeper, bool) { return r.LinkSweep, r.LinkSweep != nil },
	},
	{
		Name: "pad", JobKind: KindSweepPad, Factor: "text padding", Randomized: true,
		Params: []Param{adaptiveParam(comparatorHelp)}, Plan: core.PlanPadSweep,
		Scalar: &Scalar{Header: "pad bytes", Values: core.DefaultPadSizes, Grid: core.PadGrid},
		grid:   scalarGrid, payload: channelSweep,
	},
	{
		Name: "base", JobKind: KindSweepBase, Factor: "image base",
		Params: []Param{adaptiveParam(comparatorHelp)}, Plan: core.PlanBaseSweep,
		Scalar: &Scalar{Header: "text base", Values: core.DefaultTextBases, Grid: core.BaseGrid},
		grid:   scalarGrid, payload: channelSweep,
	},
	{
		// The co-runner identity is swept over the canonical panel;
		// co_level and quantum are fixed attributes of the whole panel.
		Name: "tenant", JobKind: KindSweepTenant, Factor: "co-runner", Randomized: true,
		OptIn:  func(s *JobSpec) *bool { return &s.CoRandom },
		Params: []Param{paramCoBench, paramCoLevel, paramQuantum},
		refuse: func(spec JobSpec) error {
			if spec.CoBench != "" {
				return fmt.Errorf("sweep-tenant sweeps the co-runner identity; co_bench would fix it (use kind=run or randomize for a pinned co-runner)")
			}
			return nil
		},
		grid: func(in sweepIn) *Grid {
			return sweepGrid(in, core.TenantGrid(in.setup, core.DefaultCoRunners()), nil, func(res *Result, points []core.TenantPoint, _ *core.AdaptiveSweepStats, rep core.BiasReport) {
				res.TenantSweep = &TenantSweepResult{Benchmark: in.b.Name, Machine: in.spec.Machine, CoLevel: in.spec.CoLevel, Quantum: in.spec.Quantum, Points: points, Report: rep}
			})
		},
		payload: func(r *Result) (sweeper, bool) { return r.TenantSweep, r.TenantSweep != nil },
	},
}

const comparatorHelp = "comparator-guided sweep: measure where layouts provably differ, verify and interpolate proven-equal plateaus"

// Channels lists every channel, in catalog order.
func Channels() []Channel { return slices.Clone(channels) }

// ChannelByName resolves a channel by its short id.
func ChannelByName(name string) (Channel, bool) {
	return findChannel(func(ch Channel) bool { return ch.Name == name })
}

// ChannelByKind resolves a channel by its sweep job kind.
func ChannelByKind(kind string) (Channel, bool) {
	return findChannel(func(ch Channel) bool { return ch.JobKind == kind })
}

func findChannel(match func(Channel) bool) (Channel, bool) {
	if i := slices.IndexFunc(channels, match); i >= 0 {
		return channels[i], true
	}
	return Channel{}, false
}

// sweepIn is what a channel's grid builder starts from.
type sweepIn struct {
	ch    Channel
	spec  JobSpec // canonical
	setup core.Setup
	b     *bench.Benchmark
	size  bench.Size
}

// scalarGrid is a Scalar channel's grid, reported as a ChannelSweepResult.
func scalarGrid(in sweepIn) *Grid {
	values := in.ch.Scalar.Values()
	return sweepGrid(in, in.ch.Scalar.Grid(in.setup, values), values, func(res *Result, points []core.ChannelPoint, adaptive *core.AdaptiveSweepStats, rep core.BiasReport) {
		res.ChannelSweep = &ChannelSweepResult{Benchmark: in.b.Name, Machine: in.spec.Machine, Channel: in.ch.Name, Points: points, Adaptive: adaptive, Report: rep}
	})
}

func channelSweep(r *Result) (sweeper, bool) { return r.ChannelSweep, r.ChannelSweep != nil }

// Modes of a channel block in a declarative spec file (internal/spec).
const (
	ModeSwept      = "swept"
	ModeRandomized = "randomized"
	ModeFixed      = "fixed"
)

// Param is one JobSpec parameter a channel takes. Name is its JSON name,
// in a JobSpec and in a declarative channel block alike, and with dashes
// for underscores its sweep flag. Modes lists the channel modes in which
// a channel block may state it; the sweep takes those of ModeSwept.
type Param struct {
	Name, Help string
	Modes      []string

	def      any                 // what Canonicalize gives an unset (zero or negative) value
	max      int64               // bound on a count; 0 means none
	zeroFlag bool                // the sweep flag defaults to zero, not def
	valid    func(JobSpec) error // validates a stated value
	field    func(*JobSpec) any  // points at the JobSpec field
}

func (p Param) get(s *JobSpec) reflect.Value { return reflect.ValueOf(p.field(s)).Elem() }

// Applies reports whether a channel block in mode may state p.
func (p Param) Applies(mode string) bool { return slices.Contains(p.Modes, mode) }

// Value returns p's value in s.
func (p Param) Value(s JobSpec) any { return p.get(&s).Interface() }

// Stated reports whether s sets p (a non-zero value).
func (p Param) Stated(s JobSpec) bool { return !p.get(&s).IsZero() }

// Copy sets p in dst to its value in src.
func (p Param) Copy(dst *JobSpec, src JobSpec) { p.get(dst).Set(p.get(&src)) }

// Check validates a value s states for p, as Canonicalize does.
func (p Param) Check(s JobSpec) error {
	if p.valid == nil || !p.Stated(s) {
		return nil
	}
	return p.valid(s)
}

// canonicalize sets p in c to its value in spec, defaulted and bounded.
func (p Param) canonicalize(c *JobSpec, spec JobSpec) error {
	v := p.get(&spec)
	if p.def != nil && (v.IsZero() || v.CanInt() && v.Int() < 0) {
		v = reflect.ValueOf(p.def)
	}
	if p.max > 0 && v.Int() > p.max {
		return fmt.Errorf("%s %d exceeds the limit of %d", p.Name, v.Int(), p.max)
	}
	p.get(c).Set(v)
	return p.Check(*c)
}

// AddFlag declares p's sweep flag on fs, bound to s's field.
func (p Param) AddFlag(fs *flag.FlagSet, s *JobSpec) {
	if p.def != nil && !p.zeroFlag {
		p.get(s).Set(reflect.ValueOf(p.def))
	}
	name := strings.ReplaceAll(p.Name, "_", "-")
	switch f := p.field(s).(type) {
	case *uint64:
		fs.Uint64Var(f, name, *f, p.Help)
	case *int:
		fs.IntVar(f, name, *f, p.Help)
	case *bool:
		fs.BoolVar(f, name, *f, p.Help)
	case *string:
		fs.StringVar(f, name, *f, p.Help)
	}
}

// The parameters, with the defaults and bounds Canonicalize applies.
var (
	sweptOnly, fixedOnly = []string{ModeSwept}, []string{ModeFixed}
	allModes             = []string{ModeSwept, ModeRandomized, ModeFixed}

	paramStep     = Param{Name: "step", Help: "environment-size step in bytes", Modes: sweptOnly, def: uint64(DefaultStep), field: func(s *JobSpec) any { return &s.Step }}
	paramOrders   = Param{Name: "orders", Help: "number of random link orders", Modes: sweptOnly, def: DefaultOrders, max: maxOrders, field: func(s *JobSpec) any { return &s.Orders }}
	paramSeed     = Param{Name: "seed", Help: "random seed", Modes: sweptOnly, def: uint64(DefaultSeed), field: func(s *JobSpec) any { return &s.Seed }}
	paramN        = Param{Name: "n", def: DefaultN, max: maxN, field: func(s *JobSpec) any { return &s.N }}
	paramEnvBytes = Param{Name: "env_bytes", Modes: fixedOnly, def: uint64(core.DefaultEnvBytes), field: func(s *JobSpec) any { return &s.EnvBytes }}
	paramCoBench  = Param{Name: "co_bench", Modes: fixedOnly, field: func(s *JobSpec) any { return &s.CoBench },
		valid: func(s JobSpec) error {
			if _, ok := bench.ByName(s.CoBench); !ok {
				return fmt.Errorf("unknown co-runner benchmark %q", s.CoBench)
			}
			return nil
		}}
	paramCoLevel = Param{Name: "co_level", Help: "co-runner optimization level", Modes: allModes, def: "O2", field: func(s *JobSpec) any { return &s.CoLevel },
		valid: func(s JobSpec) error {
			if _, err := compiler.ParseLevel(s.CoLevel); err != nil {
				return fmt.Errorf("co-runner level: %w", err)
			}
			return nil
		}}
	paramQuantum = Param{Name: "quantum", Help: "interleave quantum in retired instructions (0 = engine default)", Modes: allModes,
		def: uint64(tenancy.DefaultQuantum), zeroFlag: true, field: func(s *JobSpec) any { return &s.Quantum }}
)

// adaptiveParam is a planned channel's adaptive-sweep switch.
func adaptiveParam(help string) Param {
	return Param{Name: "adaptive", Help: help, Modes: sweptOnly, field: func(s *JobSpec) any { return &s.Adaptive }}
}

// canonicalize applies params' defaults, bounds and checks from spec to c.
func canonicalize(c *JobSpec, spec JobSpec, params ...Param) error {
	for _, p := range params {
		if err := p.canonicalize(c, spec); err != nil {
			return err
		}
	}
	return nil
}
