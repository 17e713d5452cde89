package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"biaslab/internal/analysis"
	"biaslab/internal/bench"
)

// A toy channel defined in this file alone: the stack shift, swept as a
// grid. It needs no registration and no other file — its grid constructor
// is the whole definition — and it runs through the same dense and planned
// drivers, checkpoint journal and resume logic as the shipped channels.

// shiftPoint is the toy channel's wire point.
type shiftPoint struct {
	Shift      uint64
	CyclesBase uint64
	CyclesOpt  uint64
}

func (p shiftPoint) Cycles() (base, opt uint64) { return p.CyclesBase, p.CyclesOpt }

func shiftGrid(setup Setup, shifts []uint64) Grid[shiftPoint] {
	setups := make([]Setup, len(shifts))
	for i, v := range shifts {
		setups[i] = setup
		setups[i].StackShift = v
	}
	return Grid[shiftPoint]{Kind: "shift", Setups: setups, Point: func(i int, base, opt uint64) shiftPoint {
		return shiftPoint{Shift: shifts[i], CyclesBase: base, CyclesOpt: opt}
	}}
}

var toyShifts = []uint64{0, 16, 32, 48, 64, 128, 256, 512}

// crashingCheckpoint records into ck until limit records have been made,
// then fails every further record — a process killed mid-sweep.
type crashingCheckpoint struct {
	*memCheckpoint
	mu    sync.Mutex
	limit int
}

var errCrash = errors.New("crash")

func (c *crashingCheckpoint) Record(key string, v any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.recorded() >= c.limit {
		return errCrash
	}
	return c.memCheckpoint.Record(key, v)
}

// TestToyChannelResumesBitIdentical: a checkpointed toy sweep interrupted
// after three points resumes by replaying them, measures only the rest,
// and ends bit-identical to an uninterrupted sweep.
func TestToyChannelResumesBitIdentical(t *testing.T) {
	b, _ := bench.ByName("hmmer")
	g := shiftGrid(DefaultSetup("p4"), toyShifts)
	ctx := context.Background()

	want, err := Sweep(ctx, NewRunner(bench.SizeTest), b, g, nil)
	if err != nil {
		t.Fatal(err)
	}

	ck := newMemCheckpoint()
	partial, err := Sweep(ctx, NewRunner(bench.SizeTest), b, g, &crashingCheckpoint{memCheckpoint: ck, limit: 3})
	if !errors.Is(err, errCrash) {
		t.Fatalf("interrupted sweep: err = %v, want the crash", err)
	}
	if len(partial) != 3 || ck.recorded() != 3 {
		t.Fatalf("interrupted sweep kept %d points, journalled %d; want 3 and 3", len(partial), ck.recorded())
	}

	replayed := 0
	progress := WithProgress(ck, func(key string, fromJournal bool) {
		if fromJournal {
			replayed++
		}
	})
	got, err := Sweep(ctx, NewRunner(bench.SizeTest), b, g, progress)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 3 || ck.recorded() != len(toyShifts) {
		t.Errorf("resume replayed %d and journalled %d in total; want 3 and %d", replayed, ck.recorded(), len(toyShifts))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed toy sweep diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestToyChannelPlanned runs the toy grid through the planned driver with
// a hand-written plan that claims two plateaus, split at shift 64. Whatever
// the stack shift actually does, verification must either confirm the
// plateau or fall back to dense measurement, so the points are the dense
// sweep's either way — and a dense journal is replayed, not re-measured.
func TestToyChannelPlanned(t *testing.T) {
	b, _ := bench.ByName("hmmer")
	g := shiftGrid(DefaultSetup("p4"), toyShifts)
	ctx := context.Background()
	plan := &analysis.EnvPlan{Bench: b.Name, Machine: "p4", Sizes: toyShifts, Boundaries: []int{4}, Reasons: []string{"hand-written (test)"}}

	dense, err := Sweep(ctx, NewRunner(bench.SizeTest), b, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	planned, stats, err := SweepPlanned(ctx, NewRunner(bench.SizeTest), b, g, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dense, planned) {
		t.Fatalf("planned toy sweep diverged from dense:\n%+v\n%+v", planned, dense)
	}
	if stats.Measured+stats.Interpolated != len(toyShifts) || stats.Boundaries != 1 {
		t.Errorf("stats do not account for the grid: %+v", stats)
	}

	ck := newMemCheckpoint()
	if _, err := Sweep(ctx, NewRunner(bench.SizeTest), b, g, ck); err != nil {
		t.Fatal(err)
	}
	resumed, stats, err := SweepPlanned(ctx, NewRunner(bench.SizeTest), b, g, plan, ck)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != len(toyShifts) || stats.Measured != 0 || !reflect.DeepEqual(resumed, dense) {
		t.Errorf("planned resume over a dense journal: %+v", stats)
	}
}
