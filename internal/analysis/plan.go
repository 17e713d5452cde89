package analysis

import (
	"fmt"
	"slices"
	"sort"
)

// EnvPlan is the oracle's product in measurement-planning form: over one
// environment-size grid, the points whose predicted memory-system signature
// differs from their left neighbour. Between two consecutive boundaries the
// oracle predicts constant measured cycles, so an adaptive sweep need only
// measure the boundaries (plus whatever verification points it wants) and
// interpolate the plateaus.
//
// The struct is the shared contract between `biaslab predict -json` and the
// adaptive sweep planner in internal/core: what the command emits is exactly
// what the planner consumes.
type EnvPlan struct {
	Bench   string `json:"bench"`
	Machine string `json:"machine"`
	// Channel names the layout perturbation the grid walks: "env" (stack
	// displacement via environment bytes), "pad" (inter-object text padding),
	// "base" (image-base displacement), or "link" (link order). Empty means
	// "env" (plans predate the field).
	Channel string   `json:"channel,omitempty"`
	Sizes   []uint64 `json:"sizes"`
	// Boundaries are indices into Sizes where the predicted signature
	// differs from the previous grid point's, under any contributing
	// conflict map. Index 0 is never a boundary (it has no left neighbour).
	Boundaries []int `json:"boundaries"`
	// Exact reports whether every contributing map claimed exactness (no
	// approximate footprint, no set pressure, no unmodelled mechanism).
	// Inexact plans are still useful — the adaptive sweep verifies each
	// plateau empirically and falls back to dense measurement where the
	// prediction fails — but they carry no standalone guarantee.
	Exact   bool     `json:"exact"`
	Reasons []string `json:"reasons,omitempty"`
}

// NewEnvPlan merges one or more conflict maps computed over the same grid —
// typically one per compiler level, since an env sweep measures both O2 and
// O3 binaries — into a single plan whose boundaries are the union of every
// map's predicted transitions.
func NewEnvPlan(benchName, machineName string, sizes []uint64, maps ...*ConflictMap) (*EnvPlan, error) {
	if len(maps) == 0 {
		return nil, fmt.Errorf("analysis: NewEnvPlan needs at least one conflict map")
	}
	b := newPlanBuilder(&EnvPlan{Bench: benchName, Machine: machineName, Sizes: sizes, Exact: true})
	for _, cm := range maps {
		if err := b.add("conflict map", cm.Sizes, cm.Approx, cm.ApproxReasons); err != nil {
			return nil, err
		}
		for i := 1; i < len(cm.Signatures); i++ {
			if !cm.Signatures[i].same(cm.Signatures[i-1]) {
				b.mark[i] = true
			}
		}
		if cm.PressureAnywhere {
			b.inexact("set pressure at some grid point")
		}
	}
	return b.plan(), nil
}

// NewChannelPlan merges one or more channel conflict maps computed over the
// same grid into a plan. The mapping from pairwise verdicts to boundaries is
// conservative: a plateau extends across grid point i only when every
// contributing map proved point i EQUAL to point i-1; any TRANSITION or
// UNKNOWN consecutive pair becomes a boundary. The plan is Exact only when
// every consecutive pair was decided (no UNKNOWN) and no map was approximate
// — then every claimed plateau is a proof, and every boundary is either a
// proven transition or honestly absent from the guarantee.
func NewChannelPlan(benchName, machineName string, values []uint64, maps ...*ChannelConflictMap) (*EnvPlan, error) {
	if len(maps) == 0 {
		return nil, fmt.Errorf("analysis: NewChannelPlan needs at least one channel conflict map")
	}
	b := newPlanBuilder(&EnvPlan{Bench: benchName, Machine: machineName, Channel: maps[0].Channel, Sizes: values, Exact: true})
	for _, cm := range maps {
		if cm.Channel != b.p.Channel {
			return nil, fmt.Errorf("analysis: mixed channels %q and %q in one plan", b.p.Channel, cm.Channel)
		}
		if err := b.add("channel map", cm.Values, cm.Approx, cm.ApproxReasons); err != nil {
			return nil, err
		}
		for i := 1; i < len(values); i++ {
			pr := cm.Pair(i-1, i)
			if pr == nil || pr.Verdict != VerdictEqual {
				b.mark[i] = true
			}
			if pr != nil && pr.Verdict == VerdictUnknown {
				b.inexact(fmt.Sprintf("undecided pair %d→%d: %s", values[i-1], values[i], pr.Reason))
			}
		}
	}
	return b.plan(), nil
}

// planBuilder holds what a plan's contributing maps have said so far: each
// map marks the grid points that differ from their left neighbour and
// names the reasons it is inexact.
type planBuilder struct {
	p    *EnvPlan
	mark []bool // mark[i]: some map predicts point i differs from point i-1
}

func newPlanBuilder(p *EnvPlan) *planBuilder {
	return &planBuilder{p: p, mark: make([]bool, len(p.Sizes))}
}

// add checks a contributing map's grid against the plan's and records the
// map's approximation; kind names the map type in errors.
func (b *planBuilder) add(kind string, grid []uint64, approx bool, reasons []string) error {
	if len(grid) != len(b.p.Sizes) {
		return fmt.Errorf("analysis: %s grid has %d points, plan grid %d", kind, len(grid), len(b.p.Sizes))
	}
	for i, v := range grid {
		if v != b.p.Sizes[i] {
			return fmt.Errorf("analysis: %s grid differs from plan grid at index %d (%d vs %d)", kind, i, v, b.p.Sizes[i])
		}
	}
	if approx {
		b.p.Exact = false
		b.p.Reasons = append(b.p.Reasons, reasons...)
	}
	return nil
}

// inexact marks the plan inexact for reason.
func (b *planBuilder) inexact(reason string) {
	b.p.Exact = false
	b.p.Reasons = append(b.p.Reasons, reason)
}

// plan returns the finished plan: the marked points as boundaries, the
// reasons sorted and de-duplicated.
func (b *planBuilder) plan() *EnvPlan {
	for i, m := range b.mark {
		if m {
			b.p.Boundaries = append(b.p.Boundaries, i)
		}
	}
	sort.Strings(b.p.Reasons)
	b.p.Reasons = slices.Compact(b.p.Reasons)
	return b.p
}
