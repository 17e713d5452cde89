package main

import (
	"fmt"
	"math"

	"biaslab/internal/bench"
	"biaslab/internal/core"
	"biaslab/internal/server"
	"biaslab/internal/stats"
)

// Op kinds. A job op is one biaslab invocation on a daemon worker; a plan
// op is one `biaslab predict -json`; a submit op is one service round trip.
const (
	opJob      = "job"
	opPlanEnv  = "plan-env"
	opPlanPad  = "plan-pad"
	opPlanBase = "plan-base"
	opPlanLink = "plan-link"
	opSubmit   = "submit"
)

// op is one unit of closed-loop work.
type op struct {
	ID   int            `json:"id"`
	Kind string         `json:"kind"`
	Spec server.JobSpec `json:"spec"` // canonical; plan ops use Bench, Machine and Size
	// Client is the service client that issues the op (0 fleet, 1 local).
	Client int `json:"client,omitempty"`
	// Hit marks a service resubmission of a spec the client completed.
	Hit bool `json:"hit,omitempty"`
}

// workload is one named traffic mix.
type workload struct {
	name string
	// blockSeconds is the host time one design block takes on the
	// calibration host (2 cores); a run of S seconds runs
	// round(S/blockSeconds) blocks, so every seed does the same work.
	blockSeconds float64
	gen          func(rng *stats.RNG, blocks int, size string) ([]op, error)
}

// workloads: sweep, corun and plan are driven by one closed-loop client
// (runOps), service by two (runService).
var workloads = []workload{
	// Sweeps and randomize, one benchmark per op: the execute engine and
	// the cache, TLB and predictor models do the work.
	{
		name:         "sweep",
		blockSeconds: 1.75,
		gen:          genSweep,
	},
	// Co-runner sweeps and co_random randomize: tenancy.CoRun builds a
	// machine and loads a 32 MiB co-runner image per measurement.
	{
		name:         "corun",
		blockSeconds: 1.25,
		gen:          genCorun,
	},
	// Predict plans: compile, link and static analysis, zero simulated
	// instructions.
	{
		name:         "plan",
		blockSeconds: 6.5,
		gen:          genPlan,
	},
	// biaslabd with its auditor and a 2-worker fleet: store hits, journal
	// writes and heartbeats beside execution.
	{
		name:         "service",
		blockSeconds: 8,
		gen:          genService,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// blocksFor is the number of design blocks a run of the given length runs.
func (w workload) blocksFor(seconds float64) int {
	return max(1, int(math.Round(seconds/w.blockSeconds)))
}

// ops generates the op list for a seed: the same seed always gives the same
// list, and the program receives only these generated specs.
func (w workload) ops(seed uint64, blocks int, size string) ([]op, error) {
	rng := stats.NewRNG(stats.SeedFrom("perf", w.name, fmt.Sprint(seed)))
	ops, err := w.gen(rng, blocks, size)
	if err != nil {
		return nil, err
	}
	for i := range ops {
		ops[i].ID = i
	}
	return ops, nil
}

var machines = []string{"core2", "p4", "m5"}

// The panel. Which benchmark and machine each op runs on is fixed by the
// design, not drawn from the seed: the seed draws the op order and every
// random part of a spec (link orders, randomized setups, environment
// sizes), so every seed does the same amount of work and runs with
// different seeds can be compared. Successive ops of a kind walk through
// all benchmarks, so two blocks of sweep cover each benchmark once.

// benchAt is the i-th benchmark of the walk: every benchmark once, then
// again shifted by one, so repeated rounds pair kinds with new programs.
func benchAt(i int) string {
	names := bench.Names()
	return names[(i+i/len(names))%len(names)]
}

// servicePool holds the benchmarks whose audit costs the least and the
// same for every member: every run submission is audited, so this keeps
// the service's latency set by the daemon, not by which program ran.
var servicePool = []string{"bzip2", "milc", "libquantum"}

// seed31 draws a positive spec seed.
func seed31(rng *stats.RNG) uint64 { return rng.Uint64()>>33 + 1 }

func canonical(spec server.JobSpec) (server.JobSpec, error) {
	c, err := spec.Canonicalize()
	if err != nil {
		return server.JobSpec{}, fmt.Errorf("generated spec %+v: %w", spec, err)
	}
	return c, nil
}

// shuffle returns ops in a seeded order: the design fixes which ops run,
// the seed decides when.
func shuffle(rng *stats.RNG, ops []op) []op {
	out := make([]op, len(ops))
	for i, j := range rng.Perm(len(ops)) {
		out[i] = ops[j]
	}
	return out
}

// genSweep: ops cycle through the sweep kinds, each on the next benchmark
// of the walk, with machines rotating from one cycle to the next. A block
// is one op, so the run length sets the op count finely.
func genSweep(rng *stats.RNG, blocks int, size string) ([]op, error) {
	kinds := []server.JobSpec{
		{Kind: server.KindSweepEnv, Step: 128},
		{Kind: server.KindSweepEnv, Step: 128, Adaptive: true},
		{Kind: server.KindSweepPad},
		{Kind: server.KindSweepBase},
		{Kind: server.KindSweepLink, Orders: 16},
		{Kind: server.KindRandomize, N: 16},
	}
	var ops []op
	for i := 0; i < blocks; i++ {
		spec := kinds[i%len(kinds)]
		spec.Size = size
		spec.Machine = machines[(i+i/len(kinds))%len(machines)]
		spec.Bench = benchAt(i)
		if spec.Kind == server.KindSweepLink || spec.Kind == server.KindRandomize {
			spec.Seed = seed31(rng)
		}
		c, err := canonical(spec)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op{Kind: opJob, Spec: c})
	}
	return shuffle(rng, ops), nil
}

// coRunnerCost is each panel tenant's simulated instruction count at small
// size, in millions: a co-run executes the co-runner to completion, so the
// drawn tenants set the work of a co_random randomize.
var coRunnerCost = map[string]float64{
	core.TenantIdle: 0, "hmmer": 2.74, "lbm": 5.84, "libquantum": 4.26,
	"mcf": 3.52, "milc": 4.16, "sjeng": 6.88,
}

// balancedCoRandomSeed draws spec seeds until the co-runners the seed
// would draw cost within 2% of the panel average: co_random work then does
// not depend on the seed, only which tenants land where.
func balancedCoRandomSeed(rng *stats.RNG, spec server.JobSpec) (uint64, error) {
	setup, b, err := server.BaseSetup(spec)
	if err != nil {
		return 0, err
	}
	panel := core.DefaultCoRunners()
	mean := 0.0
	for _, co := range panel {
		mean += coRunnerCost[co]
	}
	target := mean / float64(len(panel)) * float64(spec.N)
	units := len(b.Sources(bench.SizeSmall))
	for try := 0; try < 10000; try++ {
		seed := seed31(rng)
		cost := 0.0
		for _, s := range core.RandomSetupsTenant(setup, spec.N, units, seed, panel) {
			if !s.CoRunner.IsZero() {
				cost += coRunnerCost[s.CoRunner.Bench]
			}
		}
		if math.Abs(cost-target) <= 0.02*target {
			return seed, nil
		}
	}
	return 0, fmt.Errorf("no balanced co_random seed for %s", spec.Bench)
}

// genCorun: ops cycle through a tenant sweep and a co_random randomize on
// core2 and on p4, each on the next benchmark of the walk. A block is one
// op.
func genCorun(rng *stats.RNG, blocks int, size string) ([]op, error) {
	kinds := []server.JobSpec{
		{Kind: server.KindSweepTenant, Machine: "core2"},
		{Kind: server.KindSweepTenant, Machine: "p4"},
		{Kind: server.KindRandomize, N: 16, CoRandom: true, Machine: "core2"},
		{Kind: server.KindRandomize, N: 16, CoRandom: true, Machine: "p4"},
	}
	var ops []op
	for i := 0; i < blocks; i++ {
		spec := kinds[i%len(kinds)]
		spec.Size = size
		spec.Bench = benchAt(i)
		c, err := canonical(spec)
		if err != nil {
			return nil, err
		}
		if c.CoRandom {
			if c.Seed, err = balancedCoRandomSeed(rng, c); err != nil {
				return nil, err
			}
		}
		ops = append(ops, op{Kind: opJob, Spec: c})
	}
	return shuffle(rng, ops), nil
}

// genPlan: each block has a link-order map, an env plan, a base plan and a
// pad plan, each kind on the next benchmark of the walk (offset so one
// block's plans name four programs), on rotating machines.
func genPlan(rng *stats.RNG, blocks int, size string) ([]op, error) {
	var ops []op
	for j := 0; j < blocks; j++ {
		slots := []struct {
			kind  string
			bench string
		}{
			{opPlanLink, benchAt(j)},
			{opPlanEnv, benchAt(j + 4)},
			{opPlanBase, benchAt(j + 8)},
			{opPlanPad, benchAt(j + 2)},
		}
		for s, slot := range slots {
			spec := server.JobSpec{
				Kind:    server.KindRun,
				Size:    size,
				Bench:   slot.bench,
				Machine: machines[(s+j)%len(machines)],
			}
			c, err := canonical(spec)
			if err != nil {
				return nil, err
			}
			ops = append(ops, op{Kind: slot.kind, Spec: c})
		}
	}
	return shuffle(rng, ops), nil
}

// Service block shape. The fleet client's wall time is paced by heartbeats
// (a shardable job completes on a heartbeat), the local client's by the
// daemon; the local client is given more work so that it, not the
// heartbeat clock, sets the run's wall time.
const (
	serviceFreshRuns = 27 // per block: three of each servicePool × machine cell
	serviceRunHits   = 18
	serviceFleetHits = 40
)

// genService builds two disjoint spec streams. Client 0 (fleet) submits
// one shardable job per block and resubmits its completed specs; client 1
// (local) submits fresh run jobs and resubmits its completed runs.
func genService(rng *stats.RNG, blocks int, size string) ([]op, error) {
	shardable := []server.JobSpec{
		{Kind: server.KindSweepLink, Orders: 4},
		{Kind: server.KindRandomize, N: 12},
		{Kind: server.KindSweepEnv, Step: 512},
	}
	var fleet, local []op
	var fleetDone, localDone []server.JobSpec
	usedEnv := map[uint64]bool{}
	for j := 0; j < blocks; j++ {
		spec := shardable[j%len(shardable)]
		spec.Size = size
		spec.Bench = servicePool[j%len(servicePool)]
		spec.Machine = machines[(j+j/len(machines))%len(machines)]
		if spec.Kind != server.KindSweepEnv {
			spec.Seed = seed31(rng)
		}
		c, err := canonical(spec)
		if err != nil {
			return nil, err
		}
		fleet = append(fleet, op{Kind: opSubmit, Spec: c, Client: 0})
		fleetDone = append(fleetDone, c)
		// Fleet hits cycle through the completed jobs instead of drawing
		// them: the jobs differ in point count, so a draw would make the
		// points a run returns depend on the seed.
		for h := 0; h < serviceFleetHits; h++ {
			fleet = append(fleet, op{Kind: opSubmit, Spec: fleetDone[h%len(fleetDone)], Client: 0, Hit: true})
		}

		var runs []op
		for i := 0; i < serviceFreshRuns; i++ {
			cell := i % (len(servicePool) * len(machines))
			env := uint64(0)
			for env == 0 || usedEnv[env] || (env > 8 && env < 17) {
				env = uint64(rng.Intn(4096) + 1)
			}
			usedEnv[env] = true
			level := "O2"
			if rng.Intn(2) == 1 {
				level = "O3"
			}
			c, err := canonical(server.JobSpec{
				Kind:     server.KindRun,
				Size:     size,
				Bench:    servicePool[cell/len(machines)],
				Machine:  machines[cell%len(machines)],
				Level:    level,
				EnvBytes: env,
			})
			if err != nil {
				return nil, err
			}
			runs = append(runs, op{Kind: opSubmit, Spec: c, Client: 1})
		}
		runs = shuffle(rng, runs)
		// Interleave: each fresh run is followed by hits on earlier runs once
		// some exist, so hits and writes alternate through the block.
		hits := 0
		for i, r := range runs {
			local = append(local, r)
			localDone = append(localDone, r.Spec)
			for want := (i + 1) * serviceRunHits / len(runs); hits < want; hits++ {
				local = append(local, op{Kind: opSubmit, Spec: localDone[rng.Intn(len(localDone))], Client: 1, Hit: true})
			}
		}
	}
	return append(fleet, local...), nil
}
