package dataflow

import (
	"sort"

	"biaslab/internal/linker"
)

// resolveJalr validates resolved call targets against the function table.
// A call whose target is not a known function entry (decode garbage, or a
// jalr that resolved to a mid-function or data address) is demoted to an
// unresolved site so reachability stays conservative.
func resolveJalr(exe *linker.Executable, info *Info) {
	_ = exe
	for _, fi := range info.Funcs {
		kept := fi.Calls[:0]
		for _, c := range fi.Calls {
			if _, ok := info.Funcs[c.Target]; ok {
				kept = append(kept, c)
				continue
			}
			fi.UnresolvedJalr = append(fi.UnresolvedJalr, c.PC)
			for _, a := range c.Args {
				if a.Kind == ArgSP {
					e := "frame pointer passed at indirect call with invalid target"
					if !containsStr(fi.escapes, e) {
						fi.escapes = append(fi.escapes, e)
					}
				} else if a.Kind == ArgParam && a.Param < numArgRegs {
					fi.paramEsc[a.Param] = true
				}
			}
		}
		fi.Calls = kept
		fi.UnresolvedJalr = dedupePCs(fi.UnresolvedJalr)
	}
}

func dedupePCs(pcs []uint64) []uint64 {
	if len(pcs) == 0 {
		return nil
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	out := pcs[:1]
	for _, pc := range pcs[1:] {
		if pc != out[len(out)-1] {
			out = append(out, pc)
		}
	}
	return out
}

// buildCallGraph runs Tarjan's SCC algorithm over the resolved call graph,
// filling SCCID and Recursive.
func buildCallGraph(info *Info) {
	succs := map[uint64][]uint64{}
	selfLoop := map[uint64]bool{}
	for addr, fi := range info.Funcs {
		seen := map[uint64]bool{}
		for _, c := range fi.Calls {
			if c.Target == addr {
				selfLoop[addr] = true
			}
			if !seen[c.Target] {
				seen[c.Target] = true
				succs[addr] = append(succs[addr], c.Target)
			}
		}
		sort.Slice(succs[addr], func(i, j int) bool { return succs[addr][i] < succs[addr][j] })
	}

	// Iterative Tarjan to keep deep call chains off the Go stack.
	index := map[uint64]int{}
	low := map[uint64]int{}
	onStack := map[uint64]bool{}
	var stack []uint64
	next := 0
	sccCount := 0
	sccSize := map[int]int{}

	type frame struct {
		v  uint64
		si int // next successor index to visit
	}
	for _, root := range info.Order {
		if _, ok := index[root]; ok {
			continue
		}
		work := []frame{{v: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			f := &work[len(work)-1]
			if f.si < len(succs[f.v]) {
				w := succs[f.v][f.si]
				f.si++
				if _, ok := index[w]; !ok {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					work = append(work, frame{v: w})
				} else if onStack[w] {
					if index[w] < low[f.v] {
						low[f.v] = index[w]
					}
				}
				continue
			}
			// Done with v: pop, propagate lowlink, maybe emit an SCC.
			v := f.v
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := &work[len(work)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				id := sccCount
				sccCount++
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					info.SCCID[w] = id
					sccSize[id]++
					if w == v {
						break
					}
				}
			}
		}
	}
	for addr := range info.Funcs {
		id := info.SCCID[addr]
		if sccSize[id] > 1 || selfLoop[addr] {
			info.Recursive[id] = true
		}
	}
}

// closeParamTouched propagates pointer-argument footprints across the call
// graph to a fixpoint: if f passes its own parameter p (plus delta) as
// callee argument j, everything the callee touches through argument j is
// touched through f's parameter p.
func closeParamTouched(info *Info, pv *provenance) {
	const maxRounds = 32
	for round := 0; ; round++ {
		changed := false
		// Address order, not map order: the comparisons shiftMerge records
		// as slack must not depend on the iteration.
		for _, addr := range info.Order {
			fi := info.Funcs[addr]
			for _, c := range fi.Calls {
				callee := info.Funcs[c.Target]
				if callee == nil {
					continue
				}
				for j := 0; j < numArgRegs; j++ {
					a := c.Args[j]
					if a.Kind != ArgParam || len(callee.ParamTouched[j]) == 0 {
						continue
					}
					merged, tags := pv.shiftMerge(fi.ParamTouched[a.Param], fi.paramTags[a.Param],
						callee.ParamTouched[j], callee.paramTags[j], a.Delta, c.argTags[j])
					if !pv.intervalsEqual(merged, tags, fi.ParamTouched[a.Param], fi.paramTags[a.Param]) {
						fi.ParamTouched[a.Param], fi.paramTags[a.Param] = merged, tags
						changed = true
					}
				}
			}
		}
		if !changed {
			return
		}
		if round >= maxRounds {
			// Non-convergence (recursive pointer walks): widen every still-
			// growing footprint to the full span; callers clip it to the
			// pointed-to slot's real extent.
			for _, fi := range info.Funcs {
				for i := range fi.ParamTouched {
					if len(fi.ParamTouched[i]) > 0 {
						fi.ParamTouched[i] = []Interval{{Lo: 0, Hi: maxParamSpan}}
						fi.paramTags[i] = nil
					}
				}
			}
			return
		}
	}
}

// markReachable walks the resolved call graph from the entry point. Any
// reachable unresolved indirect call forfeits precision: every function
// becomes reachable (AllReachable). It also computes the must-execute
// function set: the entry function plus the closure over call sites that
// postdominate their caller's entry, where the site's target is unique.
func markReachable(exe *linker.Executable, info *Info) {
	entry := exe.Entry
	if _, ok := info.Funcs[entry]; !ok {
		// Entry outside any known function: assume everything runs.
		info.AllReachable = true
		for addr := range info.Funcs {
			info.Reachable[addr] = true
		}
		return
	}
	queue := []uint64{entry}
	info.Reachable[entry] = true
	unresolved := false
	for len(queue) > 0 {
		addr := queue[0]
		queue = queue[1:]
		fi := info.Funcs[addr]
		if len(fi.UnresolvedJalr) > 0 {
			unresolved = true
		}
		for _, c := range fi.Calls {
			if !info.Reachable[c.Target] {
				info.Reachable[c.Target] = true
				queue = append(queue, c.Target)
			}
		}
	}
	if unresolved {
		info.AllReachable = true
		for addr := range info.Funcs {
			info.Reachable[addr] = true
		}
	}

	// Must-execute closure: a callee must execute if some must-execute
	// caller has a must-execute site whose every resolution targets it.
	info.MustExec[entry] = true
	queue = []uint64{entry}
	for len(queue) > 0 {
		addr := queue[0]
		queue = queue[1:]
		fi := info.Funcs[addr]
		bySite := map[uint64][]Call{}
		for _, c := range fi.Calls {
			bySite[c.PC] = append(bySite[c.PC], c)
		}
		for pc, cs := range bySite {
			_ = pc
			if !cs[0].MustExec {
				continue
			}
			uniq := cs[0].Target
			single := true
			for _, c := range cs[1:] {
				if c.Target != uniq {
					single = false
					break
				}
			}
			if single && !info.MustExec[uniq] {
				info.MustExec[uniq] = true
				queue = append(queue, uniq)
			}
		}
	}
}

// maxProvableFrames caps how deep a proved recursion bound may go; beyond
// this the proof is rejected and the SCC stays unbounded (approximate).
const maxProvableFrames = 64

// boundRecursion proves, per recursive SCC, a bound on the number of
// component frames simultaneously live, using a decreasing-parameter
// induction:
//
// Pick an argument position q such that every call edge inside the SCC
// passes the caller's own parameter q decremented by at least d ≥ 1, and
// every edge entering the SCC from outside passes a constant. Then any
// chain of in-SCC frames carries values Vmax, ≤Vmax−d, ≤Vmax−2d, … and the
// chain stops when a site's proven guard fails:
//
//   - range guard: every in-SCC site proves param ≥ L on the call path, so
//     at most floor((Vmax−L)/d)+1 edges execute;
//   - equality guard: every in-SCC site proves param ≠ G, all decrements
//     equal d, and every entry constant V satisfies V ≥ G with d | (V−G),
//     so the value hits G exactly and the chain stops after (Vmax−G)/d
//     edges.
//
// Frames = edges + 1. Strong connectivity makes in-SCC frames on any stack
// contiguous, so the bound is also a simultaneity bound.
func boundRecursion(info *Info, pv *provenance) {
	members := map[int][]uint64{}
	for addr, id := range info.SCCID {
		members[id] = append(members[id], addr)
	}
	for id, rec := range info.Recursive {
		if !rec {
			continue
		}
		inSCC := map[uint64]bool{}
		for _, a := range members[id] {
			inSCC[a] = true
		}
		var internal []Call // caller and callee both in the SCC
		var entries []Call  // callee in the SCC, caller outside
		for _, fi := range info.Funcs {
			callerIn := inSCC[fi.Addr]
			for _, c := range fi.Calls {
				if !inSCC[c.Target] {
					continue
				}
				if callerIn {
					internal = append(internal, c)
				} else {
					entries = append(entries, c)
				}
			}
		}
		if len(entries) == 0 {
			continue // dead SCC (or entered only via unresolved calls)
		}
		best := int64(-1)
		for q := 0; q < numArgRegs; q++ {
			if b, ok := proveBound(q, internal, entries, pv); ok && (best < 0 || b < best) {
				best = b
			}
		}
		if best >= 0 && best <= maxProvableFrames {
			info.Bounds[id] = best
		}
	}
}

// proveBound attempts both induction proofs on argument position q,
// returning the smaller frame bound that holds.
func proveBound(q int, internal, entries []Call, pv *provenance) (int64, bool) {
	// The proof computes with the constants and deltas at position q, so
	// an address there would make the bound position-dependent. Check
	// every site up front: the loops below stop early in map order.
	for _, cs := range [][]Call{internal, entries} {
		for _, c := range cs {
			if c.argTags[q] != 0 {
				pv.mark("address argument reaches the recursion bounder")
			}
		}
	}
	// Every in-SCC edge must pass the caller's own parameter q, strictly
	// decremented.
	d := int64(posInf)  // minimum decrement (for the range proof)
	uniform := int64(0) // common decrement, 0 = not yet set (for the eq proof)
	uniformOK := true
	rangeL := int64(posInf) // weakest proven lower bound across sites
	rangeOK := true
	eqG := int64(negInf) // common excluded value
	eqOK := true
	for _, c := range internal {
		a := c.Args[q]
		if a.Kind != ArgParam || a.Param != q || a.Delta >= 0 {
			return 0, false
		}
		dec := -a.Delta
		if dec < d {
			d = dec
		}
		if uniform == 0 {
			uniform = dec
		} else if uniform != dec {
			uniformOK = false
		}
		if a.ParamLo == negInf {
			rangeOK = false
		} else if a.ParamLo < rangeL {
			rangeL = a.ParamLo
		}
		// For the equality proof every site must exclude a common value.
		if eqOK {
			if eqG == negInf && len(a.ParamNe) > 0 {
				// Candidate set from the first site; later sites must agree
				// on at least one common exclusion. Track via intersection
				// seeded here.
				eqG = a.ParamNe[0]
			}
			found := false
			for _, ex := range a.ParamNe {
				if ex == eqG {
					found = true
					break
				}
			}
			if !found {
				eqOK = false
			}
		}
	}
	if len(internal) == 0 {
		return 0, false
	}
	// Every entry edge must pass a known constant.
	vmax := int64(negInf)
	for _, c := range entries {
		a := c.Args[q]
		if a.Kind != ArgConst {
			return 0, false
		}
		if a.Const > vmax {
			vmax = a.Const
		}
	}

	best := int64(-1)
	if rangeOK && rangeL != posInf && vmax >= rangeL {
		edges := (vmax-rangeL)/d + 1
		frames := edges + 1
		if best < 0 || frames < best {
			best = frames
		}
	}
	if rangeOK && rangeL != posInf && vmax < rangeL {
		// No entry satisfies the guard: recursion never starts.
		if best < 0 || 1 < best {
			best = 1
		}
	}
	if eqOK && eqG != negInf && uniformOK && uniform > 0 {
		ok := true
		for _, c := range entries {
			v := c.Args[q].Const
			if v < eqG || (v-eqG)%uniform != 0 {
				ok = false
				break
			}
		}
		if ok {
			edges := (vmax - eqG) / uniform
			frames := edges + 1
			if best < 0 || frames < best {
				best = frames
			}
		}
	}
	return best, best >= 0
}
