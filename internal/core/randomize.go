package core

import (
	"context"
	"fmt"
	"sort"

	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/stats"
)

// RandomSetups draws n random experimental setups: environment size uniform
// over the representable sizes up to 4 KiB and a uniformly random link
// order. This is the paper's first remedy — **experimental setup
// randomization** — which turns the unknowable bias of any single setup
// into ordinary sampling variance that a confidence interval can honestly
// summarize.
func RandomSetups(base Setup, n, numUnits int, seed uint64) []Setup {
	rng := stats.NewRNG(seed)
	setups := make([]Setup, n)
	for i := range setups {
		s := base
		// Representable env sizes are 8 and [17, ∞); draw until valid.
		for {
			sz := uint64(rng.Intn(4096) + 1)
			if sz == 8 || sz >= 17 {
				s.EnvBytes = sz
				break
			}
		}
		s.LinkOrder = RandomOrder(numUnits, rng)
		// Code placement: pad objects by a random multiple of 4 bytes up
		// to 256, perturbing function addresses beyond what permutation
		// alone reaches.
		s.TextPad = uint64(rng.Intn(64)) * 4
		setups[i] = s
	}
	return setups
}

// RobustEstimate is the randomized-setup estimate of a speedup: a mean over
// n random setups with t, bootstrap and hierarchical confidence intervals
// plus the median-based Speedup-Test verdict.
type RobustEstimate struct {
	Benchmark string
	Machine   string
	N         int
	Speedups  []float64
	Mean      float64
	TInterval stats.Interval
	Bootstrap stats.Interval
	// MedianCI is the distribution-free order-statistic interval for the
	// median — the robust alternative later methodology work recommends.
	MedianCI stats.Interval
	// HierCI is the Kalibera & Jones random-effects bootstrap interval over
	// setup×repetition. The simulator is deterministic, so each setup
	// contributes one repetition and the interval reduces to a setup-level
	// bootstrap — exactly the variance randomization turns bias into. This
	// is the interval behind the headline "faster by x% ± y%" report.
	HierCI stats.Interval
	// Test is the median-based Speedup-Test (Touati et al.): a sign test of
	// H0 "median speedup = 1", distribution-free where the t interval is not.
	Test stats.SpeedupTestResult
}

func (e RobustEstimate) String() string {
	return fmt.Sprintf("%-11s %-9s n=%d speedup %.4f  t95 %v  boot95 %v  med95 %v",
		e.Benchmark, e.Machine, e.N, e.Mean, e.TInterval, e.Bootstrap, e.MedianCI)
}

// EffectPct returns the effect size as a percentage with its 95% half-width:
// the hierarchical interval's midpoint and half-width, in "O3 is x% ± y%
// faster" units (positive = faster).
func (e RobustEstimate) EffectPct() (center, half float64) {
	center = ((e.HierCI.Lo+e.HierCI.Hi)/2 - 1) * 100
	half = e.HierCI.Width() / 2 * 100
	return center, half
}

// EffectString renders the headline effect-size report the paper asks
// evaluations to print instead of a bare point estimate: a direction only
// when the interval supports one, always with the uncertainty attached.
func (e RobustEstimate) EffectString() string {
	center, half := e.EffectPct()
	level := e.HierCI.Level * 100
	switch {
	case e.HierCI.Lo > 1:
		return fmt.Sprintf("effect: O3 faster by %.2f%% ± %.2f%% at %.0f%%", center, half, level)
	case e.HierCI.Hi < 1:
		return fmt.Sprintf("effect: O3 slower by %.2f%% ± %.2f%% at %.0f%%", -center, half, level)
	}
	return fmt.Sprintf("effect: %+.2f%% ± %.2f%% at %.0f%% — interval spans no effect", center, half, level)
}

// Conclusive reports whether the interval excludes 1.0 — i.e. whether the
// randomized experiment actually supports a direction for the effect.
func (e RobustEstimate) Conclusive() bool {
	return !e.TInterval.Contains(1.0)
}

// newRobustEstimate assembles the estimate from measured per-setup
// speedups. Both resamplers are seeded from the experiment's identity
// (bench, machine, sample count, seed) via stats.SeedFrom — the same
// identity fields the daemon's content key hashes — so every interval is a
// pure function of the spec: byte-identical across runs, between local and
// remote execution, and after a checkpoint resume.
func newRobustEstimate(benchName, machineName string, speedups []float64, seed uint64) *RobustEstimate {
	nStr := fmt.Sprintf("%d/%d", len(speedups), seed)
	groups := make([][]float64, len(speedups))
	for i := range speedups {
		groups[i] = speedups[i : i+1]
	}
	return &RobustEstimate{
		Benchmark: benchName,
		Machine:   machineName,
		N:         len(speedups),
		Speedups:  speedups,
		Mean:      stats.Mean(speedups),
		TInterval: stats.TInterval(speedups, 0.95),
		Bootstrap: stats.BootstrapMeanInterval(speedups, 0.95, 1000, stats.NewRNG(stats.SeedFrom("boot", benchName, machineName, nStr))),
		MedianCI:  stats.MedianInterval(speedups, 0.95),
		HierCI:    stats.HierarchicalCI(groups, 0.95, 1000, stats.NewRNG(stats.SeedFrom("hier", benchName, machineName, nStr))),
		Test:      stats.SpeedupTest(speedups, 0.95),
	}
}

// RandomPoint is the checkpoint value of one randomized-setup measurement:
// the speedup at that setup. A float64 survives the JSON round trip
// exactly (encoding/json emits the shortest representation that parses
// back to the same value), so replaying a recorded point is bit-identical
// to re-measuring it.
type RandomPoint struct {
	Speedup float64 `json:"speedup"`
}

// RandomGrid is the grid of a randomized-setup estimate over the drawn
// setups: one speedup per setup, journalled in the "rand" namespace. Two
// drawn setups that happen to coincide share a key, and a resumed run
// replays one record for both — exactly what re-measuring would produce.
func RandomGrid(setups []Setup) Grid[RandomPoint] {
	return Grid[RandomPoint]{Kind: "rand", Setups: setups, Point: func(_ int, base, opt uint64) RandomPoint {
		return RandomPoint{Speedup: speedup(base, opt)}
	}}
}

// RandomEstimate assembles the robust estimate from a randomize grid's
// measured points. byTenant is for setups drawn by RandomSetupsTenant: the
// hierarchical interval then groups setups by co-runner identity — the
// co-runner is the random effect, so between-tenant variance, the channel
// itself, is what widens the interval. This is the Kalibera & Jones
// discipline applied to interference: a co-runner is a nuisance factor
// like environment size, so a "serving" conclusion must randomize over
// tenants, not fix one.
func RandomEstimate(benchName, machineName string, setups []Setup, points []RandomPoint, seed uint64, byTenant bool) *RobustEstimate {
	speedups := make([]float64, len(points))
	for i, p := range points {
		speedups[i] = p.Speedup
	}
	est := newRobustEstimate(benchName, machineName, speedups, seed)
	if byTenant {
		est.HierCI = tenantHierCI(benchName, machineName, setups, speedups, seed)
	}
	return est
}

// EstimateSpeedup runs benchmark b under n randomized setups (RandomSetups
// drawn from seed) and returns the robust estimate of the O3-over-O2
// speedup.
func EstimateSpeedup(ctx context.Context, r *Runner, b *bench.Benchmark, base Setup, n int, seed uint64) (*RobustEstimate, error) {
	setups := RandomSetups(base, n, len(r.UnitNames(b)), seed)
	points, err := Sweep(ctx, r, b, RandomGrid(setups), nil)
	if err != nil {
		return nil, err
	}
	return RandomEstimate(b.Name, base.Machine, setups, points, seed, false), nil
}

// SingleSetupVerdicts contrasts the randomized estimate with what a
// researcher using one fixed setup would have concluded: for each of the
// given single setups, the point estimate and whether it falls inside the
// randomized confidence interval.
type SingleSetupVerdict struct {
	Label      string
	Speedup    float64
	InInterval bool
}

// CompareSingleSetups measures b under each labelled single setup and
// checks the result against the robust interval.
func CompareSingleSetups(ctx context.Context, r *Runner, b *bench.Benchmark, est *RobustEstimate, labelled map[string]Setup) ([]SingleSetupVerdict, error) {
	labels := make([]string, 0, len(labelled))
	for label := range labelled { //determlint:allow keys are sorted below
		labels = append(labels, label)
	}
	sort.Strings(labels)
	verdicts := []SingleSetupVerdict{}
	for _, label := range labels {
		s := labelled[label]
		sp, _, _, err := r.Speedup(ctx, b, s, compiler.O2, compiler.O3)
		if err != nil {
			return nil, err
		}
		verdicts = append(verdicts, SingleSetupVerdict{
			Label:      label,
			Speedup:    sp,
			InInterval: est.TInterval.Contains(sp),
		})
	}
	return verdicts, nil
}

// EstimateSpeedupAdaptive answers the practical question the paper's
// randomization remedy raises — *how many setups are enough?* — by sampling
// adaptively: it draws randomized setups in batches until the 95%
// confidence interval's half-width falls below tol (in absolute speedup
// units, e.g. 0.005 = half a percentage point) or maxN setups have been
// measured. minN guards against lucky early stopping.
func EstimateSpeedupAdaptive(ctx context.Context, r *Runner, b *bench.Benchmark, base Setup, tol float64, minN, maxN int, seed uint64) (*RobustEstimate, error) {
	if minN < 3 {
		minN = 3
	}
	if maxN < minN {
		maxN = minN
	}
	setups := RandomSetups(base, maxN, len(r.UnitNames(b)), seed)
	speedups := make([]float64, 0, maxN)

	const batch = 4
	for len(speedups) < maxN {
		end := min(len(speedups)+batch, maxN)
		points, err := Sweep(ctx, r, b, RandomGrid(setups[len(speedups):end]), nil)
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			speedups = append(speedups, p.Speedup)
		}
		if len(speedups) >= minN {
			iv := stats.TInterval(speedups, 0.95)
			if iv.Width()/2 <= tol {
				break
			}
		}
	}
	return newRobustEstimate(b.Name, base.Machine, speedups, seed), nil
}
