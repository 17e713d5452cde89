package analysis

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"biaslab/internal/machine"
)

// refOccupancy is the per-unit count occupancy replaced: every unit goes
// into a set of distinct units, and each distinct unit is one increment of
// its set's int16 counter.
func refOccupancy(sets int, unit int64, stack []unitSpan, regions ...[]Interval) []int16 {
	units := map[int64]struct{}{}
	add := func(first, last int64) {
		for u := first; u <= last; u++ {
			units[u] = struct{}{}
		}
	}
	for _, s := range stack {
		add(s.first, s.last)
	}
	for _, ivs := range regions {
		for _, iv := range ivs {
			if iv.Hi > iv.Lo {
				add(iv.Lo/unit, (iv.Hi-1)/unit)
			}
		}
	}
	occ := make([]int16, sets)
	for u := range units {
		occ[((u%int64(sets))+int64(sets))%int64(sets)]++
	}
	return occ
}

// refCountUnits counts the distinct units of spans one unit at a time.
func refCountUnits(spans []unitSpan) int {
	units := map[int64]struct{}{}
	for _, s := range spans {
		for u := s.first; u <= s.last; u++ {
			units[u] = struct{}{}
		}
	}
	return len(units)
}

// checkOccupancy compares occupancy and countUnits with the per-unit
// references on one input.
func checkOccupancy(t *testing.T, name string, sets int, unit int64, stack []unitSpan, regions ...[]Interval) {
	t.Helper()
	got := occupancy(sets, unit, stack, regions...)
	want := refOccupancy(sets, unit, stack, regions...)
	if !slices.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: sets=%d unit=%d stack=%v regions=%v: set %d holds %d, per-unit count %d",
					name, sets, unit, stack, regions, i, got[i], want[i])
			}
		}
	}
	sorted := slices.Clone(stack)
	slices.SortFunc(sorted, func(a, b unitSpan) int { return cmp.Compare(a.first, b.first) })
	if got, want := countUnits(sorted), refCountUnits(sorted); got != want {
		t.Fatalf("%s: countUnits(%v) = %d, per-unit count %d", name, sorted, got, want)
	}
}

// TestOccupancyMatchesUnitCount checks the span-arithmetic occupancy and
// countUnits against the per-unit reference counts on hand-picked edge
// cases, on the shipped machines' geometries with realistic layouts, and on
// random spans.
func TestOccupancyMatchesUnitCount(t *testing.T) {
	cases := []struct {
		name    string
		sets    int
		unit    int64
		stack   []unitSpan
		regions [][]Interval
	}{
		{"empty", 8, 64, nil, nil},
		{"one unit", 8, 64, []unitSpan{{5, 5}}, nil},
		{"empty span", 8, 64, []unitSpan{{5, 4}, {9, -3}}, nil},
		{"negative units", 8, 64, []unitSpan{{-20, -3}, {-1, 2}}, nil},
		{"nested", 8, 64, []unitSpan{{0, 40}, {3, 9}, {10, 12}}, nil},
		{"overlapping", 8, 64, []unitSpan{{0, 10}, {7, 19}, {15, 30}}, nil},
		{"adjacent", 8, 64, []unitSpan{{0, 3}, {4, 7}, {8, 8}}, nil},
		{"shared boundary", 8, 64, []unitSpan{{0, 3}, {3, 7}, {7, 7}}, nil},
		{"unsorted", 8, 64, []unitSpan{{30, 33}, {0, 4}, {2, 31}}, nil},
		{"longer than sets", 8, 64, []unitSpan{{3, 3 + 8*5 + 6}}, nil},
		{"wraps past the last set", 8, 64, []unitSpan{{6, 9}}, nil},
		{"exact multiple", 8, 64, []unitSpan{{-5, 10}}, nil},
		{"one set", 1, 64, []unitSpan{{-7, 7}, {3, 20}}, [][]Interval{{{Lo: 0, Hi: 640}}}},
		{"one set, count wraps int16", 1, 1, []unitSpan{{0, 70000}}, nil},
		{"regions overlap the stack", 16, 64,
			[]unitSpan{{10, 20}},
			[][]Interval{{{Lo: 0, Hi: 64 * 12}, {Lo: 64*15 + 3, Hi: 64 * 40}}, {{Lo: 64 * 39, Hi: 64*39 + 1}}}},
		{"negative byte regions", 16, 64, nil, [][]Interval{{{Lo: -1000, Hi: -1}, {Lo: -63, Hi: 65}}}},
		{"empty regions", 16, 64, nil, [][]Interval{{{Lo: 100, Hi: 100}, {Lo: 200, Hi: 50}}, nil}},
	}
	for _, c := range cases {
		checkOccupancy(t, c.name, c.sets, c.unit, c.stack, c.regions...)
	}

	// The shipped machines: every structure the oracle and the layout
	// planner count, with text, data, bss and a stack window placed as the
	// linker and loader place them.
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range machine.Configs() {
		type geom struct {
			name string
			sets int
			unit int64
		}
		dtlb := machine.TLBGeom(cfg.DTLBEntries, cfg.PageSize)
		itlb := machine.TLBGeom(cfg.ITLBEntries, cfg.PageSize)
		geoms := []geom{
			{"L1I", cfg.L1I.Geometry().Sets, int64(cfg.L1I.Geometry().LineSize)},
			{"L1D", cfg.L1D.Geometry().Sets, int64(cfg.L1D.Geometry().LineSize)},
			{"L2", cfg.L2.Geometry().Sets, int64(cfg.L2.Geometry().LineSize)},
			{"DTLB", dtlb.Sets, int64(dtlb.PageSize)},
			{"ITLB", itlb.Sets, int64(itlb.PageSize)},
		}
		for _, g := range geoms {
			for i := 0; i < 20; i++ {
				text := []Interval{{Lo: 0x10000, Hi: 0x10000 + rng.Int63n(1<<16)}}
				data := rng.Int63n(1 << 20)
				globals := []Interval{
					{Lo: 0x10000 + data, Hi: 0x10000 + data + rng.Int63n(1<<12)},
					{Lo: 0x20000 + data, Hi: 0x20000 + data + rng.Int63n(1<<20)},
				}
				sp := int64(16<<20) - rng.Int63n(1<<13)
				var stack []unitSpan
				lo := sp - rng.Int63n(1<<12)
				for len(stack) < 6 && lo < 16<<20 {
					hi := lo + 1 + rng.Int63n(256)
					stack = append(stack, unitSpan{first: lo / g.unit, last: (hi - 1) / g.unit})
					lo = hi + rng.Int63n(512)
				}
				checkOccupancy(t, cfg.Name+"/"+g.name, g.sets, g.unit, stack, globals, text)
			}
		}
	}

	// Random spans around zero, several per set, at a range of set counts.
	for i := 0; i < 2000; i++ {
		sets := 1 + rng.Intn(70)
		unit := int64(1 + rng.Intn(100))
		var stack []unitSpan
		for n := rng.Intn(6); n > 0; n-- {
			f := rng.Int63n(400) - 200
			stack = append(stack, unitSpan{first: f, last: f + rng.Int63n(300) - 20})
		}
		var regions [][]Interval
		for n := rng.Intn(3); n > 0; n-- {
			var ivs []Interval
			for m := rng.Intn(3); m > 0; m-- {
				lo := rng.Int63n(40000) - 20000
				ivs = append(ivs, Interval{Lo: lo, Hi: lo + rng.Int63n(20000) - 100})
			}
			regions = append(regions, ivs)
		}
		checkOccupancy(t, "random", sets, unit, stack, regions...)
	}
}

// FuzzOccupancy compares occupancy and countUnits with the per-unit
// references on fuzzed spans. raw is read five bytes per span: a flag byte
// (even: a stack unit span, odd: a byte interval of the region its value
// names), a signed 16-bit start and a signed 16-bit length, so spans are
// negative, empty, nested, overlapping and longer than the set count.
func FuzzOccupancy(f *testing.F) {
	f.Add(uint16(8), uint8(63), []byte{0, 0, 0, 0, 40, 0, 3, 0, 0, 9, 1, 0, 0, 0, 64})
	f.Add(uint16(0), uint8(0), []byte{0, 0xff, 0xf0, 0, 200, 2, 0xfe, 0, 0x10, 0})
	f.Add(uint16(63), uint8(3), []byte{1, 0, 10, 0, 5, 3, 0, 12, 0xff, 0xf0, 0, 0, 11, 0, 1})
	f.Fuzz(func(t *testing.T, setsRaw uint16, unitRaw uint8, raw []byte) {
		if len(raw) > 5*64 {
			t.Skip("oversized input")
		}
		sets := 1 + int(setsRaw%1024)
		unit := 1 + int64(unitRaw)
		var stack []unitSpan
		regions := make([][]Interval, 3)
		for ; len(raw) >= 5; raw = raw[5:] {
			start := int64(int16(uint16(raw[1])<<8 | uint16(raw[2])))
			length := int64(int16(uint16(raw[3])<<8 | uint16(raw[4])))
			if raw[0]%2 == 0 {
				stack = append(stack, unitSpan{first: start, last: start + length - 1})
				continue
			}
			r := int(raw[0]/2) % len(regions)
			regions[r] = append(regions[r], Interval{Lo: start * 7, Hi: (start + length) * 7})
		}
		checkOccupancy(t, "fuzz", sets, unit, stack, regions...)
	})
}
