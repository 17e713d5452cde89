package core

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"biaslab/internal/bench"
)

// memCheckpoint is an in-memory Checkpoint that counts recordings, for
// asserting that resumed sweeps replay instead of re-measuring.
type memCheckpoint struct {
	mu      sync.Mutex
	data    map[string]json.RawMessage
	records int
}

func newMemCheckpoint() *memCheckpoint {
	return &memCheckpoint{data: map[string]json.RawMessage{}}
}

func (c *memCheckpoint) Lookup(key string, out any) (bool, error) {
	c.mu.Lock()
	raw, ok := c.data[key]
	c.mu.Unlock()
	if !ok {
		return false, nil
	}
	if out == nil {
		return true, nil
	}
	return true, json.Unmarshal(raw, out)
}

func (c *memCheckpoint) Record(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.data[key] = raw
	c.records++
	c.mu.Unlock()
	return nil
}

func (c *memCheckpoint) recorded() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.records
}

// TestEnvSweepCheckpointReplay: a second run of a checkpointed sweep — with
// a fresh Runner, as after a process restart — must replay every recorded
// point bit-identically and measure nothing.
func TestEnvSweepCheckpointReplay(t *testing.T) {
	b, _ := bench.ByName("hmmer")
	setup := DefaultSetup("p4")
	sizes := []uint64{8, 512, 1024, 2048}
	ck := newMemCheckpoint()

	first, err := EnvSweepCheckpointed(context.Background(), NewRunner(bench.SizeTest), b, setup, sizes, ck)
	if err != nil {
		t.Fatal(err)
	}
	if got := ck.recorded(); got != len(sizes) {
		t.Fatalf("first run recorded %d points, want %d", got, len(sizes))
	}

	second, err := EnvSweepCheckpointed(context.Background(), NewRunner(bench.SizeTest), b, setup, sizes, ck)
	if err != nil {
		t.Fatal(err)
	}
	if got := ck.recorded(); got != len(sizes) {
		t.Errorf("resumed run re-recorded points: %d records, want %d", got, len(sizes))
	}
	if len(second) != len(first) {
		t.Fatalf("resumed run returned %d points, want %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("point %d diverged on replay: %+v != %+v", i, first[i], second[i])
		}
	}

	// Uncheckpointed reference: the replayed numbers are the real numbers.
	plain, err := EnvSweep(context.Background(), NewRunner(bench.SizeTest), b, setup, sizes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i] != second[i] {
			t.Errorf("point %d: replay %+v != direct measurement %+v", i, second[i], plain[i])
		}
	}
}

// TestLinkSweepCheckpointReplay is the link-order analogue; it additionally
// checks that replayed points carry regenerated labels and orders rather
// than aliasing journal-owned data.
func TestLinkSweepCheckpointReplay(t *testing.T) {
	b, _ := bench.ByName("libquantum")
	setup := DefaultSetup("core2")
	ck := newMemCheckpoint()
	linkSweep := func(r *Runner) ([]LinkPoint, error) {
		return Sweep(context.Background(), r, b, LinkGrid(setup, LinkCandidates(r.UnitNames(b), 2, 7)), ck)
	}

	first, err := linkSweep(NewRunner(bench.SizeTest))
	if err != nil {
		t.Fatal(err)
	}
	before := ck.recorded()
	second, err := linkSweep(NewRunner(bench.SizeTest))
	if err != nil {
		t.Fatal(err)
	}
	if got := ck.recorded(); got != before {
		t.Errorf("resumed link sweep re-measured: %d new records", got-before)
	}
	if len(first) != len(second) {
		t.Fatalf("resumed sweep returned %d points, want %d", len(second), len(first))
	}
	for i := range first {
		a, b := first[i], second[i]
		if a.Label != b.Label || a.Speedup != b.Speedup || a.CyclesBase != b.CyclesBase || a.CyclesOpt != b.CyclesOpt {
			t.Errorf("point %d diverged: %+v != %+v", i, a, b)
		}
		if len(a.Order) != len(b.Order) {
			t.Errorf("point %d order length diverged", i)
			continue
		}
		for k := range a.Order {
			if a.Order[k] != b.Order[k] {
				t.Errorf("point %d order diverged at %d", i, k)
				break
			}
		}
	}
}

// TestCheckpointKeyIsolation: points recorded under one setup must never be
// replayed for a different one — the key encodes the complete setup.
func TestCheckpointKeyIsolation(t *testing.T) {
	b, _ := bench.ByName("hmmer")
	sizes := []uint64{8, 512}
	ck := newMemCheckpoint()

	s1 := DefaultSetup("p4")
	if _, err := EnvSweepCheckpointed(context.Background(), NewRunner(bench.SizeTest), b, s1, sizes, ck); err != nil {
		t.Fatal(err)
	}
	before := ck.recorded()

	// Same benchmark and sizes, different machine: nothing may be replayed.
	s2 := DefaultSetup("core2")
	if _, err := EnvSweepCheckpointed(context.Background(), NewRunner(bench.SizeTest), b, s2, sizes, ck); err != nil {
		t.Fatal(err)
	}
	if got := ck.recorded() - before; got != len(sizes) {
		t.Errorf("different-machine sweep recorded %d new points, want %d (no cross-setup replay)", got, len(sizes))
	}
}

// TestWithProgress: the progress wrapper must announce fresh points only
// after the underlying Record succeeds and replayed points only on a
// Lookup hit, without disturbing the values that flow through.
func TestWithProgress(t *testing.T) {
	type seen struct {
		key      string
		replayed bool
	}
	type pt struct {
		Env uint64 `json:"env"`
	}
	var calls []seen
	mem := newMemCheckpoint()
	ck := WithProgress(mem, func(key string, replayed bool) {
		calls = append(calls, seen{key, replayed})
	})

	if err := ck.Record("p1", pt{Env: 8}); err != nil {
		t.Fatal(err)
	}
	if ok, _ := ck.Lookup("missing", nil); ok {
		t.Error("lookup of unrecorded key reported a hit")
	}
	var got pt
	if ok, err := ck.Lookup("p1", &got); !ok || err != nil || got.Env != 8 {
		t.Fatalf("Lookup p1 = %v, %v, %+v; want hit with Env 8", ok, err, got)
	}
	want := []seen{{"p1", false}, {"p1", true}}
	if len(calls) != len(want) {
		t.Fatalf("progress calls %+v, want %+v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Errorf("call %d = %+v, want %+v", i, calls[i], want[i])
		}
	}

	// A nil inner checkpoint still reports fresh progress — the daemon uses
	// this for jobs that need progress but no durability.
	calls = nil
	nilCk := WithProgress(nil, func(key string, replayed bool) {
		calls = append(calls, seen{key, replayed})
	})
	if ok, err := nilCk.Lookup("x", nil); ok || err != nil {
		t.Errorf("nil-backed Lookup = %v, %v; want miss", ok, err)
	}
	if err := nilCk.Record("x", pt{}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || calls[0] != (seen{"x", false}) {
		t.Errorf("nil-backed progress calls %+v, want [{x false}]", calls)
	}
}
