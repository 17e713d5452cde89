package server

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"biaslab/internal/bench"
	"biaslab/internal/core"
)

// A toy channel defined in this file alone: the stack shift of
// internal/core/toychannel_test.go, given one row of the channel table.
// The row is the whole definition: Canonicalize, GridOf, Execute and the
// renderers take it up from the table, with no other file touched.

var toyShifts = []uint64{0, 16, 64, 256}

func shiftGrid(setup core.Setup, shifts []uint64) core.Grid[core.ChannelPoint] {
	setups := make([]core.Setup, len(shifts))
	for i, v := range shifts {
		setups[i] = setup
		setups[i].StackShift = v
	}
	return core.Grid[core.ChannelPoint]{Kind: "shift", Setups: setups, Point: func(i int, base, opt uint64) core.ChannelPoint {
		return core.ChannelPoint{Value: shifts[i], CyclesBase: base, CyclesOpt: opt, Speedup: float64(base) / float64(opt)}
	}}
}

var shiftChannel = Channel{
	Name: "shift", JobKind: "sweep-shift", Factor: "stack shift",
	Scalar: &Scalar{Header: "shift bytes", Values: func() []uint64 { return toyShifts }, Grid: shiftGrid},
	grid:   scalarGrid, payload: channelSweep,
}

func TestToyChannelRow(t *testing.T) {
	saved := channels
	channels = append(channels[:len(channels):len(channels)], shiftChannel)
	t.Cleanup(func() { channels = saved })

	// Parameters the row does not take are zeroed; defaults are filled.
	spec, err := JobSpec{Kind: "sweep-shift", Bench: "hmmer", Size: "test", Machine: "p4", Step: 64, Adaptive: true}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if want := (JobSpec{Kind: "sweep-shift", Size: "test", Bench: "hmmer", Machine: "p4", Personality: "gcc"}); !reflect.DeepEqual(spec, want) {
		t.Fatalf("canonical spec = %+v, want %+v", spec, want)
	}
	if _, err := Key(spec); err != nil {
		t.Fatal(err)
	}

	g, err := GridOf(spec)
	if err != nil {
		t.Fatal(err)
	}
	setup, b, err := BaseSetup(spec)
	if err != nil {
		t.Fatal(err)
	}
	cg := shiftGrid(setup, toyShifts)
	if g.Len() != len(toyShifts) {
		t.Fatalf("grid has %d points, want %d", g.Len(), len(toyShifts))
	}
	for i := range toyShifts {
		if g.Key(i) != cg.Key(b.Name, i) {
			t.Errorf("point %d keys as %s, want the core grid's %s", i, g.Key(i), cg.Key(b.Name, i))
		}
	}

	r := core.NewRunner(bench.SizeTest)
	res, err := Execute(context.Background(), r, spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Sweep(context.Background(), r, b, cg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs := res.ChannelSweep
	if cs == nil || cs.Channel != "shift" || !reflect.DeepEqual(cs.Points, want) {
		t.Fatalf("result payload = %+v, want the shift points %+v", cs, want)
	}
	if cs.Report.Factor != "stack shift" {
		t.Errorf("report factor = %q, want the row's", cs.Report.Factor)
	}

	text, err := RenderText(res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(text, "O3-over-O2 speedup of hmmer vs shift bytes (p4)\n") || !strings.Contains(text, "stack shift") {
		t.Errorf("text rendering does not carry the row's header and factor:\n%s", text)
	}
	csv, err := RenderCSV(res)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(csv, "\n"); lines[0] != "shift bytes,cycles O2,cycles O3,speedup" || len(lines) != len(toyShifts)+2 {
		t.Errorf("CSV rendering:\n%s", csv)
	}
}
