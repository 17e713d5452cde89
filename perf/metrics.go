package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// metricDef names one reported metric. Bounds live in BENCHMARK.json, the
// single place a regression threshold is fixed; compare reads them there.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the metrics a user of the lab sees, reported by every
// untraced run of every workload. They measure host time and memory, never
// simulated time.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"points_per_s", "points/s", "higher"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// spanLayers lists the layers a traced run puts spans around, in the order
// the breakdown prints them. Each reports calls and share as metrics, and
// self time and the median call duration in the breakdown notes.
var spanLayers = []string{
	"cmini", "compiler", "linker", "loader", "machine",
	"cache", "tlb", "predictor", "tenancy",
	"analysis.oracle", "analysis.layout", "analysis.comparator", "analysis.linkorder",
	"core.execute", "journal", "server.key", "server.render",
	"audit", "cluster", "client",
}

// layerExtras are the per-layer metrics beyond the two every span layer
// reports. No metric here is a time that a workload without the layer
// would report as a constant zero: times of layers that only some
// workloads exercise (a layer's self time and median call, the cold
// machine time, the fleet's first-point wait and heartbeat round trip)
// are kept in the run's breakdown notes instead, and the structure replay
// behind the ns-per-access figures runs on every workload.
var layerExtras = []metricDef{
	{"linker.reuse_ratio", "fraction", "higher"},
	{"loader.alloc_mb_per_call", "MB", "lower"},
	{"machine.minstr_per_s", "Minstr/s", "higher"},
	{"machine.cold_calls", "count", "lower"},
	{"machine.cold_share", "fraction", "lower"},
	{"cache.l1i.ns_per_access", "ns", "lower"},
	{"cache.l1d.ns_per_access", "ns", "lower"},
	{"cache.l2.ns_per_access", "ns", "lower"},
	{"tlb.itlb.ns_per_access", "ns", "lower"},
	{"tlb.dtlb.ns_per_access", "ns", "lower"},
	{"predictor.ns_per_branch", "ns", "lower"},
	{"tenancy.minstr_per_s", "Minstr/s", "higher"},
	{"tenancy.alloc_mb_per_call", "MB", "lower"},
	{"analysis.comparator.pairs", "count", "lower"},
	{"analysis.undecided_ratio", "fraction", "lower"},
	{"core.measurements", "count", "lower"},
	{"journal.bytes", "bytes", "lower"},
	{"server.hit_ratio", "fraction", "higher"},
	{"server.points_measured", "count", "lower"},
	{"server.points_replayed", "count", "higher"},
	{"cluster.heartbeats", "count", "lower"},
	{"cluster.points_per_heartbeat", "points", "higher"},
	{"cluster.duplicate_ratio", "fraction", "lower"},
	{"cluster.requeues", "count", "lower"},
	{"cluster.steals", "count", "lower"},
	// Run-level numbers that are not end-to-end metrics, taken from the
	// traced run's untraced pass: simulated instructions run on only some
	// workloads, and op latencies do not repeat from run to run within the
	// bound an end-to-end metric needs, because on sweep, corun and plan
	// they rest on a few long ops, each one sample of the host's speed.
	{"sim_minstr_per_s", "Minstr/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"trace.self_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// runNotes are the run-level numbers an untraced run prints and keeps in
// its notes beside the end-to-end metrics. Store-hit latencies are notes
// only: they exist on service alone, and elsewhere would read a constant
// zero.
var runNotes = []metricDef{
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"hit_p50_ms", "ms", "lower"},
	{"hit_tail_ms", "ms", "lower"},
	{"sim_minstr_per_s", "Minstr/s", "higher"},
}

// perLayer returns every per-layer metric in print order.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range spanLayers {
		out = append(out,
			metricDef{Name: l + ".calls", Unit: "count", Better: "lower"},
			metricDef{Name: l + ".share", Unit: "fraction", Better: "lower"},
		)
	}
	return append(out, layerExtras...)
}

// value is one measured metric as the result line prints it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the sample median (the mean of the two middle values for
// an even count), matching Python's statistics.median.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the ones a checker computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// statOf summarizes a metric's values over runs; its spread is the
// interquartile range as a share of the median.
func statOf(xs []float64) summaryStat {
	q1, q3 := quartiles(xs)
	s := summaryStat{N: len(xs), Median: median(xs), Q1: q1, Q3: q3}
	if s.Median != 0 {
		s.Spread = (q3 - q1) / s.Median
	}
	return s
}

// tail returns the op tail: the highest percentile that has at least ten
// samples beyond it, but never below the 90th percentile, so that a run of
// few ops still reports a value above its median. It also returns the
// percentile and the sample count.
func tail(xs []float64) (v float64, pct int, n int) {
	s := sorted(xs)
	n = len(s)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	i := max(n-11, (9*n+9)/10-1, 0) // rank n-11, or the nearest rank of p90
	return s[i], 100 * (i + 1) / n, n
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// runRecord is one run of one workload as a result file stores it.
type runRecord struct {
	Workload      string           `json:"workload"`
	Seed          uint64           `json:"seed"`
	Seconds       int              `json:"seconds"`
	Traced        bool             `json:"traced"`
	Correct       bool             `json:"correct"`
	Attempted     int              `json:"attempted"`
	Failed        int              `json:"failed"`
	ResultsSHA256 string           `json:"results_sha256"`
	Metrics       map[string]value `json:"metrics"`
	// Notes carries what a number needs to be read: the tail percentile
	// and sample counts, the op mix, and any failures.
	Notes map[string]any `json:"notes,omitempty"`
}

// hostInfo records what a run's numbers depend on beyond the code.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	CPU        string `json:"cpu,omitempty"`
}

// summaryStat is one metric's distribution over a workload's runs.
type summaryStat struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
}

// resultFile is what perf run -out writes and perf compare reads.
type resultFile struct {
	Host hostInfo    `json:"host"`
	Runs []runRecord `json:"runs"`
	// Summary holds, per workload and metric, the median and quartiles over
	// the file's untraced runs (traced runs are summarized under
	// "<workload>.traced").
	Summary map[string]map[string]summaryStat `json:"summary"`
}

func (f *resultFile) summarize() {
	type key struct {
		group, metric string
	}
	vals := map[key][]float64{}
	units := map[key]string{}
	for _, r := range f.Runs {
		if !r.Correct {
			continue
		}
		group := r.Workload
		if r.Traced {
			group += ".traced"
		}
		for name, v := range r.Metrics {
			k := key{group, name}
			vals[k] = append(vals[k], v.Value)
			units[k] = v.Unit
		}
	}
	f.Summary = map[string]map[string]summaryStat{}
	for k, xs := range vals {
		if f.Summary[k.group] == nil {
			f.Summary[k.group] = map[string]summaryStat{}
		}
		st := statOf(xs)
		st.Unit = units[k]
		f.Summary[k.group][k.metric] = st
	}
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendResults adds runs to the result file at path (creating it) and
// rewrites its summary, so a ledger can collect untraced and traced runs
// from several invocations.
func appendResults(path string, host hostInfo, runs []runRecord) error {
	f := &resultFile{}
	if _, err := os.Stat(path); err == nil {
		if f, err = readResultFile(path); err != nil {
			return err
		}
	}
	f.Host = host
	f.Runs = append(f.Runs, runs...)
	f.summarize()
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// boundedMetric is an end-to-end metric with its regression bound: the
// share of the parent's median by which it may get worse.
type boundedMetric struct {
	metricDef
	Bound float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json this program reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []metricDef     `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}
