package server

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"biaslab/internal/core"
)

// varied returns the Setup fields that differ across setups.
func varied(setups []core.Setup) []string {
	seen := map[string]bool{}
	first := reflect.ValueOf(setups[0])
	for _, s := range setups[1:] {
		v := reflect.ValueOf(s)
		for i := 0; i < v.NumField(); i++ {
			if !reflect.DeepEqual(v.Field(i).Interface(), first.Field(i).Interface()) {
				seen[v.Type().Field(i).Name] = true
			}
		}
	}
	var names []string
	for name := range seen { //determlint:allow names are sorted before use
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestRandomizedMatchesDraws ties the table's Randomized and OptIn to what
// the randomize draws actually vary. Each channel's sweep grid names the
// Setup field the channel moves. Over 64 draws, core.RandomSetups must
// vary exactly the fields of the channels drawn on every setup (env bytes,
// link order, text pad), and core.RandomSetupsTenant those plus the
// opt-in channels' (the co-runner). The text base is never drawn.
func TestRandomizedMatchesDraws(t *testing.T) {
	setup := core.DefaultSetup("core2")
	const n, units, seed = 64, 5, 7
	plain := strings.Join(varied(core.RandomSetups(setup, n, units, seed)), ",")
	withTenant := strings.Join(varied(core.RandomSetupsTenant(setup, n, units, seed, core.DefaultCoRunners())), ",")

	var always, optIn []string
	for _, ch := range Channels() {
		spec, err := JobSpec{Kind: ch.JobKind, Bench: "mcf", Size: "test"}.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		g, err := GridOf(spec)
		if err != nil {
			t.Fatal(err)
		}
		fields := varied(g.setups)
		if len(fields) != 1 {
			t.Fatalf("%s sweep varies %v, want one Setup field", ch.Name, fields)
		}
		switch {
		case ch.Randomized && ch.OptIn == nil:
			always = append(always, fields[0])
		case ch.Randomized:
			optIn = append(optIn, fields[0])
		}
		if !ch.Randomized && (strings.Contains(plain, fields[0]) || strings.Contains(withTenant, fields[0])) {
			t.Errorf("%s is not Randomized, but the draws vary its %s", ch.Name, fields[0])
		}
	}
	sort.Strings(always)
	if got, want := plain, strings.Join(always, ","); got != want {
		t.Errorf("RandomSetups varies %s; the table's always-drawn channels move %s", got, want)
	}
	both := append(always, optIn...)
	sort.Strings(both)
	if got, want := withTenant, strings.Join(both, ","); got != want {
		t.Errorf("RandomSetupsTenant varies %s; the table's randomized channels move %s", got, want)
	}
	if want := "EnvBytes,LinkOrder,TextPad"; plain != want {
		t.Errorf("RandomSetups varies %s, want %s", plain, want)
	}
	if want := "CoRunner,EnvBytes,LinkOrder,TextPad"; withTenant != want {
		t.Errorf("RandomSetupsTenant varies %s, want %s", withTenant, want)
	}
}
