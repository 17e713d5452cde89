package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"biaslab/internal/analysis"
	"biaslab/internal/bench"
	"biaslab/internal/cmini"
	"biaslab/internal/compiler"
	"biaslab/internal/core"
	"biaslab/internal/ir"
	"biaslab/internal/journal"
	"biaslab/internal/linker"
	"biaslab/internal/loader"
	"biaslab/internal/machine"
	"biaslab/internal/obj"
	"biaslab/internal/server"
	"biaslab/internal/tenancy"
)

// maxInstructions is the Runner's default per-run instruction bound.
const maxInstructions = 1 << 31

// replayer runs the traced pass of sweep, corun and plan. For every op
// whose measurement set its spec fixes, it rebuilds the pipeline core.Runner
// runs — compile once per (benchmark, config), link once per layout, load
// per measurement, run on a pooled machine or co-run through tenancy —
// from each layer's public functions, with a span around every call. The
// result is then assembled by server.Execute from the op's journal, the
// path a resumed run or a cluster merge takes, so the traced op yields the
// very bytes the untraced op did. Ops the replay cannot decompose (adaptive
// sweeps) run whole under one core.execute span.
type replayer struct {
	rec *recorder
	dir string
	obs *observer // the traced pass's own measurements, for core.execute ops
	// want holds every measurement of the untraced pass; each replayed
	// measurement must match its cycles and checksum exactly.
	want map[string]measured

	mu       sync.Mutex
	problems []string
	seenExe  map[*linker.Executable]bool // first run of an executable decodes it
	linkReq  int
	linkHit  int
	checksum map[string]uint64
}

func newReplayer(rec *recorder, dir string, want map[string]measured) *replayer {
	return &replayer{
		rec: rec, dir: dir, want: want, obs: newObserver(false),
		seenExe: map[*linker.Executable]bool{}, checksum: map[string]uint64{},
	}
}

func (rp *replayer) problem(format string, args ...any) {
	rp.mu.Lock()
	rp.problems = append(rp.problems, fmt.Sprintf(format, args...))
	rp.mu.Unlock()
}

// opState holds one op's caches and machine pool: a fresh Runner's worth.
type opState struct {
	rp   *replayer
	size bench.Size

	mu       sync.Mutex
	objs     map[objKey]*compiled
	links    map[linkKey]*linked
	machines map[string][]*machine.Machine
}

type objKey struct {
	bench string
	cfg   compiler.Config
}

type linkKey struct {
	bench     string
	cfg       compiler.Config
	order     string
	pad, base uint64
}

type compiled struct {
	once sync.Once
	objs []*obj.Object
	prog *ir.Program
	err  error
}

type linked struct {
	once sync.Once
	exe  *linker.Executable
	err  error
}

func (rp *replayer) newOp(size bench.Size) *opState {
	return &opState{
		rp: rp, size: size,
		objs: map[objKey]*compiled{}, links: map[linkKey]*linked{}, machines: map[string][]*machine.Machine{},
	}
}

// compile mirrors compiler.Compile stage by stage, once per key.
func (st *opState) compile(b *bench.Benchmark, cfg compiler.Config, sc scope) (*compiled, error) {
	key := objKey{b.Name, cfg}
	st.mu.Lock()
	c := st.objs[key]
	if c == nil {
		c = &compiled{}
		st.objs[key] = c
	}
	st.mu.Unlock()
	rec := st.rp.rec
	c.once.Do(func() {
		var unit *cmini.Unit
		if c.err = rec.timed("cmini", sc, func() (err error) {
			unit, err = compiler.Frontend(b.Sources(st.size))
			return err
		}); c.err != nil {
			return
		}
		var prog *ir.Program
		if c.err = rec.timed("compiler", sc, func() (err error) {
			prog, err = compiler.Lower(unit)
			return err
		}); c.err != nil {
			return
		}
		if c.err = rec.timed("compiler", sc, func() error {
			compiler.Optimize(prog, cfg)
			return prog.Verify()
		}); c.err != nil {
			return
		}
		objs := make([]*obj.Object, len(prog.Modules))
		for i, m := range prog.Modules {
			if c.err = rec.timed("compiler", sc, func() (err error) {
				objs[i], err = compiler.CodeGen(m, cfg)
				return err
			}); c.err != nil {
				return
			}
		}
		c.objs, c.prog = objs, prog
	})
	return c, c.err
}

// executable mirrors Runner.Executable: compile, order, link once per layout.
func (st *opState) executable(b *bench.Benchmark, setup core.Setup, sc scope) (*linker.Executable, *compiled, error) {
	c, err := st.compile(b, setup.Compiler, sc)
	if err != nil {
		return nil, nil, err
	}
	key := linkKey{b.Name, setup.Compiler, fmt.Sprint(setup.LinkOrder), setup.TextPad, setup.TextBase}
	st.mu.Lock()
	l := st.links[key]
	hit := l != nil
	if !hit {
		l = &linked{}
		st.links[key] = l
	}
	st.mu.Unlock()
	st.rp.mu.Lock()
	st.rp.linkReq++
	if hit {
		st.rp.linkHit++
	}
	st.rp.mu.Unlock()
	l.once.Do(func() {
		ordered := c.objs
		if setup.LinkOrder != nil {
			if !core.ValidOrder(setup.LinkOrder, len(c.objs)) {
				l.err = fmt.Errorf("invalid link order %v for %d units", setup.LinkOrder, len(c.objs))
				return
			}
			ordered = make([]*obj.Object, len(c.objs))
			for i, src := range setup.LinkOrder {
				ordered[i] = c.objs[src]
			}
		}
		l.err = st.rp.rec.timed("linker", sc, func() (err error) {
			l.exe, err = linker.Link(ordered, linker.Options{PadObjects: setup.TextPad, TextBase: setup.TextBase})
			return err
		})
	})
	return l.exe, c, l.err
}

func (st *opState) load(exe *linker.Executable, opts loader.Options, sc scope) (*loader.Image, error) {
	var img *loader.Image
	err := st.rp.rec.timed("loader", sc, func() (err error) {
		img, err = loader.Load(exe, opts)
		return err
	})
	return img, err
}

func envOptions(b *bench.Benchmark, s core.Setup) loader.Options {
	env := s.EnvBytes
	if env == 0 {
		env = core.DefaultEnvBytes
	}
	return loader.Options{Env: loader.SyntheticEnv(env), Args: []string{b.Name}, StackShift: s.StackShift}
}

// measure mirrors Runner.measure for one setup and checks the outcome
// against the untraced pass.
func (st *opState) measure(ctx context.Context, b *bench.Benchmark, setup core.Setup, sc scope) (uint64, error) {
	rp, rec := st.rp, st.rp.rec
	exe, _, err := st.executable(b, setup, sc)
	if err != nil {
		return 0, err
	}
	img, err := st.load(exe, envOptions(b, setup), sc)
	if err != nil {
		return 0, err
	}
	cfg, ok := machine.ConfigByName(setup.Machine)
	if !ok {
		return 0, fmt.Errorf("unknown machine %q", setup.Machine)
	}
	var res *machine.Result
	if setup.CoRunner.IsZero() {
		st.mu.Lock()
		var m *machine.Machine
		if pool := st.machines[setup.Machine]; len(pool) > 0 {
			m, st.machines[setup.Machine] = pool[len(pool)-1], pool[:len(pool)-1]
		} else {
			m = machine.New(cfg)
		}
		st.mu.Unlock()
		rp.mu.Lock()
		cold := !rp.seenExe[exe]
		rp.seenExe[exe] = true
		rp.mu.Unlock()
		s := rec.begin("machine", sc)
		res, err = m.RunCtx(ctx, img, maxInstructions)
		d := s.end()
		st.mu.Lock()
		st.machines[setup.Machine] = append(st.machines[setup.Machine], m)
		st.mu.Unlock()
		if err != nil {
			return 0, err
		}
		rec.add("machine.instructions", float64(res.Counters.Instructions))
		if cold {
			rec.add("machine.cold_calls", 1)
			rec.add("machine.cold_ns", float64(d.Nanoseconds()))
		}
	} else {
		coBench, ok := bench.ByName(setup.CoRunner.Bench)
		if !ok {
			return 0, fmt.Errorf("unknown co-runner %q", setup.CoRunner.Bench)
		}
		coSetup, err := core.CoRunnerSetup(setup)
		if err != nil {
			return 0, err
		}
		coExe, _, err := st.executable(coBench, coSetup, sc)
		if err != nil {
			return 0, err
		}
		coImg, err := st.load(coExe, tenancy.CoRunnerLoadOptions(loader.SyntheticEnv(coSetup.EnvBytes), []string{coBench.Name}), sc)
		if err != nil {
			return 0, err
		}
		var co *machine.Result
		if err := rec.timed("tenancy", sc, func() (err error) {
			res, co, err = tenancy.CoRun(ctx, cfg, img, coImg, setup.CoRunner.Quantum, maxInstructions)
			return err
		}); err != nil {
			return 0, err
		}
		rec.add("tenancy.instructions", float64(res.Counters.Instructions+co.Counters.Instructions))
		rp.checkOutput(coBench.Name, co.Checksum)
		coImg.Release()
	}
	img.Release()
	rec.add("core.measurements", 1)
	rp.checkOutput(b.Name, res.Checksum)
	key := measureKey(b.Name, setup)
	if w, ok := rp.want[key]; !ok {
		rp.problem("replay measured %s, which the untraced run did not", key)
	} else if w.cycles != res.Counters.Cycles || w.checksum != res.Checksum {
		rp.problem("replay of %s: %d cycles, checksum %d; untraced run: %d cycles, checksum %d",
			key, res.Counters.Cycles, res.Checksum, w.cycles, w.checksum)
	}
	return res.Counters.Cycles, nil
}

// checkOutput enforces what Runner.checkOracle does: a program's output
// never depends on the setup.
func (rp *replayer) checkOutput(name string, sum uint64) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if want, ok := rp.checksum[name]; ok && want != sum {
		rp.problems = append(rp.problems, fmt.Sprintf("%s output checksum %d, elsewhere %d", name, sum, want))
	}
	rp.checksum[name] = sum
}

// speedup measures one O3-over-O2 point, as Runner.Speedup does.
func (st *opState) speedup(ctx context.Context, b *bench.Benchmark, s core.Setup, sc scope) (base, opt uint64, sp float64, err error) {
	if base, err = st.measure(ctx, b, s.WithLevel(compiler.O2), sc); err != nil {
		return
	}
	if opt, err = st.measure(ctx, b, s.WithLevel(compiler.O3), sc); err != nil {
		return
	}
	return base, opt, float64(base) / float64(opt), nil
}

// point is one pending sweep point: its checkpoint key and how to measure it.
type point struct {
	key     string
	measure func(context.Context, scope) (any, error)
}

func withCoRunner(s core.Setup, co string) core.Setup {
	if co == core.TenantIdle {
		s.CoRunner = core.CoRunner{}
		return s
	}
	s.CoRunner.Bench = co
	return s
}

// points enumerates the measurement set a decomposable spec fixes, with
// the checkpoint keys the checkpointed sweeps record under; ok is false for
// specs whose measurements depend on results (adaptive sweeps and
// adaptive randomize).
func (st *opState) points(spec server.JobSpec) ([]point, bool, error) {
	setup, b, err := server.BaseSetup(spec)
	if err != nil {
		return nil, false, err
	}
	speed := func(s core.Setup, build func(base, opt uint64, sp float64) any) func(context.Context, scope) (any, error) {
		return func(ctx context.Context, sc scope) (any, error) {
			base, opt, sp, err := st.speedup(ctx, b, s, sc)
			if err != nil {
				return nil, err
			}
			return build(base, opt, sp), nil
		}
	}
	var pts []point
	switch spec.Kind {
	case server.KindSweepEnv:
		if spec.Adaptive {
			return nil, false, nil
		}
		for _, size := range core.DefaultEnvSizes(spec.Step) {
			s := setup
			s.EnvBytes = size
			pts = append(pts, point{core.PointKey("env", b.Name, s), speed(s, func(base, opt uint64, sp float64) any {
				return core.EnvPoint{EnvBytes: size, CyclesBase: base, CyclesOpt: opt, Speedup: sp}
			})})
		}
	case server.KindSweepPad, server.KindSweepBase:
		if spec.Adaptive {
			return nil, false, nil
		}
		kind, values := "pad", core.DefaultPadSizes()
		if spec.Kind == server.KindSweepBase {
			kind, values = "base", core.DefaultTextBases()
		}
		for _, v := range values {
			s := setup
			if kind == "pad" {
				s.TextPad = v
			} else {
				s.TextBase = v
			}
			pts = append(pts, point{core.PointKey(kind, b.Name, s), speed(s, func(base, opt uint64, sp float64) any {
				return core.ChannelPoint{Value: v, CyclesBase: base, CyclesOpt: opt, Speedup: sp}
			})})
		}
	case server.KindSweepLink:
		names := core.NewRunner(st.size).UnitNames(b)
		for _, c := range core.LinkCandidates(names, spec.Orders, spec.Seed) {
			s := setup
			s.LinkOrder = c.Order
			pts = append(pts, point{core.PointKey("link", b.Name, s), speed(s, func(base, opt uint64, sp float64) any {
				return core.LinkPoint{Label: c.Label, Order: c.Order, CyclesBase: base, CyclesOpt: opt, Speedup: sp}
			})})
		}
	case server.KindSweepTenant:
		for _, co := range core.DefaultCoRunners() {
			pts = append(pts, point{core.TenantPointKey(b.Name, setup, co), speed(withCoRunner(setup, co), func(base, opt uint64, sp float64) any {
				return core.TenantPoint{CoRunner: co, CyclesBase: base, CyclesOpt: opt, Speedup: sp}
			})})
		}
	case server.KindRandomize:
		if spec.Tol > 0 {
			return nil, false, nil
		}
		units := len(core.NewRunner(st.size).UnitNames(b))
		setups := core.RandomSetups(setup, spec.N, units, spec.Seed)
		if spec.CoRandom {
			setups = core.RandomSetupsTenant(setup, spec.N, units, spec.Seed, core.DefaultCoRunners())
		}
		for _, s := range setups {
			pts = append(pts, point{core.PointKey("rand", b.Name, s), speed(s, func(_, _ uint64, sp float64) any {
				return core.RandomPoint{Speedup: sp}
			})})
		}
	default:
		return nil, false, nil
	}
	return pts, true, nil
}

// tracedCheckpoint is a core.Checkpoint over a journal with a span around
// every Record and Lookup.
type tracedCheckpoint struct {
	jn  *journal.Journal
	rec *recorder
	sc  scope
}

func (t *tracedCheckpoint) Lookup(key string, out any) (bool, error) {
	s := t.rec.begin("journal", t.sc)
	defer s.end()
	return t.jn.Lookup(key, out)
}

func (t *tracedCheckpoint) Record(key string, v any) error {
	s := t.rec.begin("journal", t.sc)
	defer s.end()
	return t.jn.Record(key, v)
}

// replayJob is the traced form of execJob.
func (rp *replayer) replayJob(ctx context.Context, o op, sc scope) ([]byte, int, error) {
	var c server.JobSpec
	if err := rp.rec.timed("server.key", sc, func() (err error) {
		if c, err = o.Spec.Canonicalize(); err != nil {
			return err
		}
		_, err = server.Key(c)
		return err
	}); err != nil {
		return nil, 0, err
	}
	size, err := bench.ParseSize(c.Size)
	if err != nil {
		return nil, 0, err
	}
	path := journalPath(rp.dir, o.ID)
	jn, err := journal.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer jn.Close()
	st := rp.newOp(size)
	pts, decomposable, err := st.points(c)
	if err != nil {
		return nil, 0, err
	}
	total := 0
	var res *server.Result
	if decomposable {
		ck := &tracedCheckpoint{jn: jn, rec: rp.rec, sc: sc}
		var pending []point
		for _, p := range pts {
			ok, err := ck.Lookup(p.key, nil)
			if err != nil {
				return nil, 0, err
			}
			if !ok {
				pending = append(pending, p)
			}
		}
		if err := core.ForEach(ctx, len(pending), 0, func(ctx context.Context, i int) error {
			v, err := pending[i].measure(ctx, sc)
			if err != nil {
				return err
			}
			return ck.Record(pending[i].key, v)
		}); err != nil {
			return nil, 0, err
		}
		// Assembly replays the complete journal and must measure nothing.
		asm := core.NewRunner(size)
		asm.OnMeasure = func(m *core.Measurement) { rp.problem("assembling op %d measured %s", o.ID, m.Setup) }
		res, err = server.Execute(ctx, asm, c, ck, func(n int) { total = n })
	} else {
		s := rp.rec.begin("core.execute", sc)
		ck := &tracedCheckpoint{jn: jn, rec: rp.rec, sc: s.scope()}
		res, err = server.Execute(ctx, runnerFor(size, c.Bench, rp.obs), c, ck, func(n int) { total = n })
		s.end()
	}
	if err != nil {
		return nil, 0, err
	}
	if info, err := os.Stat(path); err == nil {
		rp.rec.add("journal.bytes", float64(info.Size()))
	}
	var raw []byte
	if err := rp.rec.timed("server.render", sc, func() (err error) {
		if raw, err = server.EncodeResult(res); err != nil {
			return err
		}
		_, err = server.RenderText(res)
		return err
	}); err != nil {
		return nil, 0, err
	}
	return raw, total, nil
}

// replayPlan is the traced form of execPlan, mirroring core.PlanEnvSweep,
// the pad/base planner and predict's link-order map.
func (rp *replayer) replayPlan(o op, sc scope) ([]byte, int, error) {
	size, err := bench.ParseSize(o.Spec.Size)
	if err != nil {
		return nil, 0, err
	}
	b, ok := bench.ByName(o.Spec.Bench)
	if !ok {
		return nil, 0, fmt.Errorf("unknown benchmark %q", o.Spec.Bench)
	}
	cfg, ok := machine.ConfigByName(o.Spec.Machine)
	if !ok {
		return nil, 0, fmt.Errorf("unknown machine %q", o.Spec.Machine)
	}
	setup := core.DefaultSetup(o.Spec.Machine)
	st := rp.newOp(size)
	rec := rp.rec
	grid := planGrid(o.Kind)
	var plan *analysis.EnvPlan
	switch o.Kind {
	case opPlanLink:
		c, err := st.compile(b, compiler.Config{Level: compiler.O2}, sc)
		if err != nil {
			return nil, 0, err
		}
		var lm *analysis.LinkOrderMap
		if err := rec.timed("analysis.linkorder", sc, func() (err error) {
			lm, err = analysis.BuildLinkOrderMap(c.objs, cfg, linker.Options{}, linkOrderPerms)
			return err
		}); err != nil {
			return nil, 0, err
		}
		return encodeLinkMap(lm)
	case opPlanEnv:
		var maps []*analysis.ConflictMap
		for _, lvl := range []compiler.Level{compiler.O2, compiler.O3} {
			s := setup.WithLevel(lvl)
			exe, c, err := st.executable(b, s, sc)
			if err != nil {
				return nil, 0, err
			}
			var or *analysis.Oracle
			if err := rec.timed("analysis.oracle", sc, func() (err error) {
				or, err = analysis.NewOracle(exe, c.prog, cfg, []string{b.Name}, s.StackShift)
				return err
			}); err != nil {
				return nil, 0, err
			}
			rec.timed("analysis.oracle", sc, func() error {
				maps = append(maps, or.ConflictMap(b.Name, setup.Machine, grid))
				return nil
			})
		}
		if err := rec.timed("analysis.oracle", sc, func() (err error) {
			plan, err = analysis.NewEnvPlan(b.Name, setup.Machine, grid, maps...)
			return err
		}); err != nil {
			return nil, 0, err
		}
	case opPlanPad, opPlanBase:
		kind := "pad"
		if o.Kind == opPlanBase {
			kind = "base"
		}
		var sp uint64
		rec.timed("loader", sc, func() error {
			sp = loader.InitialSP(envOptions(b, setup))
			return nil
		})
		var maps []*analysis.ChannelConflictMap
		for _, lvl := range []compiler.Level{compiler.O2, compiler.O3} {
			layouts := make([]*analysis.ChannelLayout, 0, len(grid))
			for _, v := range grid {
				s := setup
				if kind == "pad" {
					s.TextPad = v
				} else {
					s.TextBase = v
				}
				s = s.WithLevel(lvl)
				exe, c, err := st.executable(b, s, sc)
				if err != nil {
					return nil, 0, err
				}
				var cl *analysis.ChannelLayout
				if err := rec.timed("analysis.layout", sc, func() (err error) {
					cl, err = analysis.NewChannelLayout(v, exe, c.prog)
					return err
				}); err != nil {
					return nil, 0, err
				}
				layouts = append(layouts, cl)
			}
			var cm *analysis.ChannelConflictMap
			rec.timed("analysis.comparator", sc, func() error {
				cm = analysis.BuildChannelConflictMap(b.Name, setup.Machine, kind, cfg, sp, layouts)
				return nil
			})
			undecided := 0
			for _, p := range cm.Pairs {
				if p.Verdict == analysis.VerdictUnknown {
					undecided++
				}
			}
			rec.add("analysis.comparator.pairs", float64(len(cm.Pairs)))
			rec.add("analysis.comparator.undecided", float64(undecided))
			maps = append(maps, cm)
		}
		if err := rec.timed("analysis.comparator", sc, func() (err error) {
			plan, err = analysis.NewChannelPlan(b.Name, setup.Machine, grid, maps...)
			return err
		}); err != nil {
			return nil, 0, err
		}
	default:
		return nil, 0, fmt.Errorf("unknown plan kind %q", o.Kind)
	}
	return encodePlan(o.Kind, plan)
}

// replayOp runs one op of the traced pass under its op span.
func (rp *replayer) replayOp(ctx context.Context, o op) opResult {
	s := rp.rec.begin("op", scope{op: o.ID})
	defer s.end()
	var r opResult
	if o.Kind == opJob {
		r.raw, r.points, r.err = rp.replayJob(ctx, o, s.scope())
	} else {
		r.raw, r.points, r.err = rp.replayPlan(o, s.scope())
	}
	if r.err != nil {
		r.err = fmt.Errorf("op %d (%s): %w", o.ID, describe(o), r.err)
	}
	return r
}

// describe names an op for messages.
func describe(o op) string {
	if o.Kind != opJob && o.Kind != opSubmit {
		return o.Kind + " " + o.Spec.Bench + "@" + o.Spec.Machine
	}
	raw, _ := json.Marshal(o.Spec)
	if o.Hit {
		return "hit " + string(raw)
	}
	return string(raw)
}
