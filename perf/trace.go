package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around a public function of that layer.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`     // op index, -1 outside any op
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
}

// recorder keeps every span in memory until the traced pass ends, plus the
// per-layer counters (instructions, accesses, bytes) the extras divide by.
// A nil *recorder records nothing, so untraced code paths share the code.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64

	mu       sync.Mutex
	spans    []span
	counters map[string]float64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), counters: map[string]float64{}}
}

// scope identifies the span new spans nest under.
type scope struct {
	parent int64
	op     int
}

// openSpan is a span whose end is not yet known.
type openSpan struct {
	r     *recorder
	sp    span
	start time.Time
}

// begin opens a span in layer under sc. On a nil recorder it returns nil,
// whose end and scope are no-ops.
func (r *recorder) begin(layer string, sc scope) *openSpan {
	if r == nil {
		return nil
	}
	now := time.Now()
	return &openSpan{r: r, start: now, sp: span{
		ID: r.nextID.Add(1), Parent: sc.parent, Op: sc.op, Layer: layer,
		Start: now.Sub(r.t0).Nanoseconds(),
	}}
}

// end closes the span and returns its duration.
func (s *openSpan) end() time.Duration {
	if s == nil {
		return 0
	}
	now := time.Now()
	s.sp.End = now.Sub(s.r.t0).Nanoseconds()
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, s.sp)
	s.r.mu.Unlock()
	return now.Sub(s.start)
}

// scope returns the scope for spans nested inside s.
func (s *openSpan) scope() scope {
	if s == nil {
		return scope{}
	}
	return scope{parent: s.sp.ID, op: s.sp.Op}
}

// record adds a span whose bounds were observed from outside the call, as
// for a fleet worker's shard execution.
func (r *recorder) record(layer string, sc scope, start, end time.Time) {
	if r == nil {
		return
	}
	sp := span{ID: r.nextID.Add(1), Parent: sc.parent, Op: sc.op, Layer: layer,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// set records a named value, replacing any earlier one.
func (r *recorder) set(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] = v
	r.mu.Unlock()
}

// add accumulates a named counter.
func (r *recorder) add(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += v
	r.mu.Unlock()
}

// counter returns a named counter's value, 0 if it was never set.
func (r *recorder) counter(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// timed runs fn inside a span of layer and returns fn's error.
func (r *recorder) timed(layer string, sc scope, fn func() error) error {
	s := r.begin(layer, sc)
	defer s.end()
	return fn()
}

// layerStat aggregates one layer's spans.
type layerStat struct {
	Calls  int
	Self   time.Duration
	Total  time.Duration
	P50    time.Duration
	durs   []float64
	selfNs int64
}

// breakdown computes each layer's calls, self time and median call
// duration. A span's self time is its duration minus the part of its
// interval that its children cover; children running in parallel are
// merged before subtracting, so self time never goes negative.
func (r *recorder) breakdown() map[string]*layerStat {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerStat{}
	for _, s := range spans {
		st := out[s.Layer]
		if st == nil {
			st = &layerStat{}
			out[s.Layer] = st
		}
		dur := s.End - s.Start
		st.Calls++
		st.Total += time.Duration(dur)
		st.durs = append(st.durs, float64(dur))
		st.selfNs += dur - covered(s, children[s.ID])
	}
	for _, st := range out {
		st.Self = time.Duration(st.selfNs)
		st.P50 = time.Duration(median(st.durs))
	}
	return out
}

// covered returns how much of parent's interval its children cover.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// writeSpans writes the spans to dir/<workload>.trace.json.
func (r *recorder) writeSpans(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	doc := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans}
	raw, err := json.Marshal(doc)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), raw, 0o644)
}
