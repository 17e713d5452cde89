package core

import (
	"fmt"
	"sort"

	"biaslab/internal/stats"
)

// The multi-tenant interference channel. Where the scalar channels sweep a
// number (env bytes, pad bytes, base address), this one sweeps an
// *identity*: which program shares the cache/TLB/predictor hierarchy with
// the subject while it is measured. "idle" — no co-runner, every
// pre-existing setup — is always the first point, so the sweep reads as
// "here is the conclusion on an idle machine, and here is what each
// tenant does to it".

// TenantIdle is the sweep label of the no-co-runner point.
const TenantIdle = "idle"

// TenantPoint is one point of a co-runner sweep.
type TenantPoint struct {
	// CoRunner is the co-running benchmark's name, or TenantIdle.
	CoRunner   string
	CyclesBase uint64
	CyclesOpt  uint64
	Speedup    float64
}

// DefaultCoRunners returns the canonical co-runner panel: the idle machine
// first, then a fixed spread of tenants from memory-thrashing (milc, lbm,
// mcf) to compute-bound (sjeng), so a sweep brackets the interference a
// serving machine can add.
func DefaultCoRunners() []string {
	return []string{TenantIdle, "hmmer", "lbm", "libquantum", "mcf", "milc", "sjeng"}
}

// withCoRunner returns setup with the channel pointed at the named tenant
// (level and quantum kept from setup), or fully off for TenantIdle.
func withCoRunner(setup Setup, co string) Setup {
	if co == TenantIdle || co == "" {
		setup.CoRunner = CoRunner{}
		return setup
	}
	setup.CoRunner.Bench = co
	return setup
}

// Cycles returns the point's measured O2/O3 cycle pair.
func (p TenantPoint) Cycles() (base, opt uint64) { return p.CyclesBase, p.CyclesOpt }

// TenantGrid is the co-runner channel: setup with each named benchmark (or
// TenantIdle) sharing the machine. The co-runner is part of the setup, not
// the comparison: both the O2 and the O3 binary of the subject run against
// the identical tenant.
func TenantGrid(setup Setup, corunners []string) Grid[TenantPoint] {
	return Grid[TenantPoint]{Kind: "tenant", Setups: applyEach(setup, corunners, func(s *Setup, co string) { *s = withCoRunner(*s, co) }),
		Point: func(i int, base, opt uint64) TenantPoint {
			label := corunners[i]
			if label == "" {
				label = TenantIdle
			}
			return TenantPoint{CoRunner: label, CyclesBase: base, CyclesOpt: opt, Speedup: speedup(base, opt)}
		}}
}

// TenantPointKey returns the checkpoint key of one tenant-sweep point —
// the key TenantGrid's point for co records under.
func TenantPointKey(benchName string, setup Setup, co string) string {
	return sweepKey("tenant", benchName, withCoRunner(setup, co))
}

// RandomSetupsTenant draws n randomized setups exactly like RandomSetups
// and additionally randomizes the co-runner over candidates (which may
// include TenantIdle). The tenant draws come from their own rng stream
// derived from seed, so the env/link/pad draws are bit-identical to
// RandomSetups' — turning the channel on never perturbs how the other
// factors randomize.
func RandomSetupsTenant(base Setup, n, numUnits int, seed uint64, candidates []string) []Setup {
	setups := RandomSetups(base, n, numUnits, seed)
	if len(candidates) == 0 {
		return setups
	}
	rng := stats.NewRNG(stats.SeedFrom("tenant", fmt.Sprintf("%d", seed)))
	for i := range setups {
		setups[i] = withCoRunner(setups[i], candidates[rng.Intn(len(candidates))])
	}
	return setups
}

// tenantHierCI computes the hierarchical interval with setups grouped by
// co-runner identity (idle is a group of its own), in sorted-tenant order
// so the resampling is deterministic.
func tenantHierCI(benchName, machineName string, setups []Setup, speedups []float64, seed uint64) stats.Interval {
	byTenant := map[string][]float64{}
	for i, s := range setups {
		key := TenantIdle
		if !s.CoRunner.IsZero() {
			key = s.CoRunner.Bench
		}
		byTenant[key] = append(byTenant[key], speedups[i])
	}
	tenants := make([]string, 0, len(byTenant))
	for t := range byTenant { //determlint:allow keys are sorted below
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	groups := make([][]float64, len(tenants))
	for i, t := range tenants {
		groups[i] = byTenant[t]
	}
	nStr := fmt.Sprintf("%d/%d", len(speedups), seed)
	return stats.HierarchicalCI(groups, 0.95, 1000,
		stats.NewRNG(stats.SeedFrom("hier-tenant", benchName, machineName, nStr)))
}
