// Package channels is the single registry of measurement-bias channels:
// every way this laboratory can perturb a setup without touching the
// code under test. The catalog handler (/v1/catalog), the predict CLI's
// channel flag, the table-driven sweep subcommands, and the declarative
// bias-on-demand schema (internal/spec) all consume this table, so a
// channel added here appears everywhere at once and the surfaces cannot
// drift apart on names.
package channels

// Channel describes one bias channel.
type Channel struct {
	// Name is the short channel id: env, link, pad, base, tenant.
	Name string
	// JobKind is the server job kind that sweeps the channel.
	JobKind string
	// Factor is the human phrase for the perturbed factor, as the bias
	// reports print it.
	Factor string
	// Oracle reports whether the channel is a `biaslab predict -channel`
	// value: a static oracle or comparator predicts its sensitivity
	// without simulating. The link channel's layout classes ride along in
	// the env channel's report; the tenant channel has no oracle at all —
	// predicting shared-state displacement would require simulating both
	// tenants' reference streams, which is exactly what measurement is
	// for.
	Oracle bool
	// Randomized reports whether a randomize job draws the channel: env,
	// link and pad on every setup, the tenant when the job sets
	// co_random. The image base is never drawn; only sweep-base varies it.
	Randomized bool
}

// All lists every channel in catalog order. The slice is freshly
// allocated; callers may reorder it.
func All() []Channel {
	return []Channel{
		{Name: "env", JobKind: "sweep-env", Factor: "environment size", Oracle: true, Randomized: true},
		{Name: "link", JobKind: "sweep-link", Factor: "link order", Oracle: false, Randomized: true},
		{Name: "pad", JobKind: "sweep-pad", Factor: "text padding", Oracle: true, Randomized: true},
		{Name: "base", JobKind: "sweep-base", Factor: "image base", Oracle: true, Randomized: false},
		{Name: "tenant", JobKind: "sweep-tenant", Factor: "co-runner", Oracle: false, Randomized: true},
	}
}

// ByName resolves a channel by its short id.
func ByName(name string) (Channel, bool) {
	for _, c := range All() {
		if c.Name == name {
			return c, true
		}
	}
	return Channel{}, false
}

// ByJobKind resolves a channel by its sweep job kind.
func ByJobKind(kind string) (Channel, bool) {
	for _, c := range All() {
		if c.JobKind == kind {
			return c, true
		}
	}
	return Channel{}, false
}

// Names lists every channel id, in catalog order.
func Names() []string {
	var names []string
	for _, c := range All() {
		names = append(names, c.Name)
	}
	return names
}

// OracleNames lists the ids of the channels `biaslab predict` supports.
func OracleNames() []string {
	var names []string
	for _, c := range All() {
		if c.Oracle {
			names = append(names, c.Name)
		}
	}
	return names
}
