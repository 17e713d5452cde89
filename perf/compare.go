package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"biaslab/internal/stats"
)

// Verdicts. A gain needs nearly every pair won and a gap wider than the
// old side's own spread; a regression needs only the median to move past
// the bound, so that noise cannot hide one.
const (
	verdictImproved   = "improved"   // ≥ 9/10 of pairs won and the median gap exceeds the parent's IQR
	verdictRegressed  = "regressed"  // median worse by more than the metric's bound
	verdictUnresolved = "unresolved" // a side's spread exceeds the bound
	verdictSame       = "same"       // within the bound
)

// comparison is one (workload, metric) judged between two result files.
type comparison struct {
	Workload, Metric, Unit string
	Old, New               summaryStat
	// Effect is the mean of the paired new/old ratios minus one, with its
	// bootstrap 95% interval; Wins counts pairs the change improved.
	Effect, Lo, Hi float64
	Wins, Pairs    int
	Verdict        string
}

// runsOf returns a file's untraced runs of a workload, by seed.
func runsOf(f *resultFile, workload string) []runRecord {
	var out []runRecord
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out
}

// incorrectRuns names the runs of one side whose outputs failed a check.
func incorrectRuns(side string, runs []runRecord) []string {
	var out []string
	for _, r := range runs {
		if !r.Correct {
			out = append(out, fmt.Sprintf("%s seed %d: the %s run was not correct (%d of %d ops failed)", r.Workload, r.Seed, side, r.Failed, r.Attempted))
		}
	}
	return out
}

// pairRuns pairs runs with equal seeds; when the files share no seed it
// pairs them in order.
func pairRuns(old, cur []runRecord) [][2]runRecord {
	bySeed := map[uint64]runRecord{}
	for _, r := range old {
		bySeed[r.Seed] = r
	}
	var pairs [][2]runRecord
	for _, r := range cur {
		if o, ok := bySeed[r.Seed]; ok {
			pairs = append(pairs, [2]runRecord{o, r})
		}
	}
	if len(pairs) == 0 {
		for i := 0; i < min(len(old), len(cur)); i++ {
			pairs = append(pairs, [2]runRecord{old[i], cur[i]})
		}
	}
	return pairs
}

// judge applies the verdict rules to one metric.
func judge(c *comparison, better string, bound float64) {
	gap := c.New.Median - c.Old.Median
	if better == "lower" {
		gap = -gap
	}
	worse := -gap / c.Old.Median
	switch {
	case c.Pairs > 0 && float64(c.Wins) >= 0.9*float64(c.Pairs) && gap > c.Old.Q3-c.Old.Q1:
		c.Verdict = verdictImproved
	case worse > bound:
		c.Verdict = verdictRegressed
	case c.Old.Spread > bound || c.New.Spread > bound:
		c.Verdict = verdictUnresolved
	default:
		c.Verdict = verdictSame
	}
}

// compareFiles judges every end-to-end metric on every workload both files
// ran. It also lists the faults that make a workload's numbers
// incomparable: a run that was not correct (a change that fails ops is not
// judged on the seeds that survived), paired runs of different lengths
// (they ran different op lists), and seeds whose result digests differ (a
// host-performance change must leave every simulated result identical).
func compareFiles(base, change *resultFile, bf *benchmarkFile) ([]comparison, []string) {
	var out []comparison
	var faults []string
	for _, w := range workloads {
		oldRuns, newRuns := runsOf(base, w.name), runsOf(change, w.name)
		if len(oldRuns) == 0 || len(newRuns) == 0 {
			continue
		}
		faults = append(faults, incorrectRuns("old", oldRuns)...)
		faults = append(faults, incorrectRuns("new", newRuns)...)
		pairs := pairRuns(oldRuns, newRuns)
		for _, p := range pairs {
			switch {
			case p[0].Seconds != p[1].Seconds:
				faults = append(faults, fmt.Sprintf("%s seeds %d and %d: runs of %d s and %d s ran different op lists", w.name, p[0].Seed, p[1].Seed, p[0].Seconds, p[1].Seconds))
			case p[0].Seed == p[1].Seed && p[0].ResultsSHA256 != p[1].ResultsSHA256:
				faults = append(faults, fmt.Sprintf("%s seed %d: results_sha256 %s vs %s", w.name, p[0].Seed, p[0].ResultsSHA256, p[1].ResultsSHA256))
			}
		}
		for _, m := range bf.EndToEnd {
			c := comparison{Workload: w.name, Metric: m.Name, Unit: m.Unit}
			vals := func(rs []runRecord) []float64 {
				var xs []float64
				for _, r := range rs {
					xs = append(xs, r.Metrics[m.Name].Value)
				}
				return xs
			}
			c.Old, c.New = statOf(vals(oldRuns)), statOf(vals(newRuns))
			var ratios []float64
			for _, p := range pairs {
				o, n := p[0].Metrics[m.Name].Value, p[1].Metrics[m.Name].Value
				if o == 0 {
					continue
				}
				ratios = append(ratios, n/o)
				if (m.Better == "lower" && n < o) || (m.Better == "higher" && n > o) {
					c.Wins++
				}
			}
			c.Pairs = len(ratios)
			if c.Pairs > 0 {
				c.Effect = stats.Mean(ratios) - 1
				iv := stats.BootstrapMeanInterval(ratios, 0.95, 2000, stats.NewRNG(stats.SeedFrom("perf compare", w.name, m.Name)))
				c.Lo, c.Hi = iv.Lo-1, iv.Hi-1
			}
			judge(&c, m.Better, m.Bound)
			out = append(out, c)
		}
	}
	return out, faults
}

func printComparisons(w io.Writer, cs []comparison) {
	fmt.Fprintf(w, "%-8s %-16s %-9s %12s %25s %12s %25s %20s %6s  %s\n",
		"workload", "metric", "unit", "old median", "old [q1, q3]", "new median", "new [q1, q3]", "effect ± 95% CI", "wins", "verdict")
	for _, c := range cs {
		half := (c.Hi - c.Lo) / 2 * 100
		fmt.Fprintf(w, "%-8s %-16s %-9s %12.5g [%11.5g, %11.5g] %12.5g [%11.5g, %11.5g] %+8.2f%% ± %6.2f%% %3d/%-3d %s\n",
			c.Workload, c.Metric, c.Unit, c.Old.Median, c.Old.Q1, c.Old.Q3, c.New.Median, c.New.Q1, c.New.Q3,
			c.Effect*100, half, c.Wins, c.Pairs, c.Verdict)
	}
}

// compareMain is the compare subcommand. It exits 2 when the files cannot
// be compared (see compareFiles), 1 when a metric regressed, else 0.
func compareMain(args []string) int {
	fs := newFlagSet("compare")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perf compare [-benchmark BENCHMARK.json] OLD.json NEW.json")
		return 2
	}
	bf, err := readBenchmarkFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf compare:", err)
		return 2
	}
	base, err := readResultFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf compare:", err)
		return 2
	}
	change, err := readResultFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf compare:", err)
		return 2
	}
	cs, faults := compareFiles(base, change, bf)
	printComparisons(os.Stdout, cs)
	for _, f := range faults {
		fmt.Println("CANNOT COMPARE:", f)
	}
	switch {
	case len(faults) > 0:
		return 2
	case anyVerdict(cs, verdictRegressed):
		return 1
	}
	return 0
}

func anyVerdict(cs []comparison, v string) bool {
	for _, c := range cs {
		if c.Verdict == v {
			return true
		}
	}
	return false
}
