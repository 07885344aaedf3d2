package lint

import "go/types"

// DetTaint propagates nondeterminism taint through the whole-program
// call graph: the function references the fact base records for every
// declaration and package-level initializer. The v1
// wallclock/globalrand/maporder checks are purely local: they flag a
// time.Now, a global math/rand draw or a map iteration at the line it
// appears on, so a source laundered through one wrapper function —
// `func stamp() int64 { return clock() }` with `clock` calling
// time.Now — sails straight into model code unseen. DetTaint closes
// that hole: a function is tainted if it (or anything it can reach
// through calls, method values, or conservative interface dispatch)
// observes a nondeterminism source, and any reference from model code
// (internal/ packages) to a tainted module function is a finding, with
// the taint chain spelled out.
//
// A reasoned //lint:ignore wallclock / globalrand / maporder / dettaint
// directive at the source stops propagation there: a justified boundary
// (e.g. the campaign harness's opt-in host-clock stall guard) must not
// taint every caller above it.
var DetTaint = &Analyzer{
	Name:      "dettaint",
	Doc:       "model code reaches a nondeterminism source through the call graph",
	RunModule: runDetTaint,
}

// sourceDesc classifies a function object as a nondeterminism source,
// returning a human-readable description or "".
func sourceDesc(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	switch pkg.Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			return "time." + fn.Name() + " (wall clock)"
		}
	case "math/rand", "math/rand/v2":
		// Only package-level functions draw from the process-global
		// generator; methods on *rand.Rand are seeded per component.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && !globalRandAllowed[fn.Name()] {
			return pkg.Path() + "." + fn.Name() + " (process-global RNG)"
		}
	}
	return ""
}

// sourceCheck is the local analyzer that would flag a direct use of the
// source; its //lint:ignore directives stop taint seeding too.
func sourceCheck(fn *types.Func) string {
	if fn.Pkg() != nil && fn.Pkg().Path() == "time" {
		return WallClock.Name
	}
	return GlobalRand.Name
}

// taint is the reason one function is nondeterministic: the chain of
// calls from it to a source.
type taint struct {
	chain string // e.g. "stamp → clock → time.Now (wall clock)"
}

func runDetTaint(mp *ModulePass) {
	fb := mp.facts()
	var decls []*fnNode // position order, like fb.nodes
	for _, n := range fb.nodes {
		if n.fn != nil {
			decls = append(decls, n)
		}
	}

	// Seed: functions that directly observe a source (unless a reasoned
	// directive covers the source line — for the dettaint check itself
	// or for the local check that owns the source).
	tainted := map[*types.Func]taint{}
	for _, n := range decls {
		for _, ref := range n.refs {
			desc := sourceDesc(ref.Obj)
			if desc == "" {
				continue
			}
			if mp.SuppressedAt(ref.Pos, "dettaint") || mp.SuppressedAt(ref.Pos, sourceCheck(ref.Obj)) {
				continue
			}
			if _, ok := tainted[n.fn]; !ok {
				tainted[n.fn] = taint{chain: n.name + " → " + desc}
			}
		}
		if _, ok := tainted[n.fn]; ok {
			continue
		}
		if unsanctionedMapRange(mp, n) {
			tainted[n.fn] = taint{chain: n.name + " → map iteration (order randomized per run)"}
		}
	}

	// Propagate to callers until the fixpoint; node order is positional,
	// so the chains picked on ties are deterministic. Cycles converge
	// because a function already tainted is never revisited.
	for changed := true; changed; {
		changed = false
		for _, n := range decls {
			if _, ok := tainted[n.fn]; ok {
				continue
			}
			for _, ref := range n.refs {
				if t, ok := taintOf(tainted, ref); ok {
					tainted[n.fn] = taint{chain: n.name + " → " + t.chain}
					changed = true
					break
				}
			}
		}
	}

	// Report every reference from model code to a tainted module
	// function, and any source captured as a bare function value (a
	// direct source *call* in model code is the local checks' finding,
	// not repeated here).
	for _, n := range decls {
		if inModelCode(n.pkg) {
			reportTaintedRefs(mp, n.refs, tainted)
		}
	}
	for _, pkg := range mp.Pkgs {
		if inModelCode(pkg) {
			reportTaintedRefs(mp, fb.initRefs[pkg], tainted)
		}
	}
}

// taintOf resolves a reference against the taint map, following the
// conservative interface-dispatch candidates.
func taintOf(tainted map[*types.Func]taint, ref FuncRef) (taint, bool) {
	if t, ok := tainted[ref.Obj]; ok {
		return t, true
	}
	if ref.Iface {
		for _, c := range ref.Candidates {
			if t, ok := tainted[c]; ok {
				return t, true
			}
		}
	}
	return taint{}, false
}

// reportTaintedRefs emits the dettaint findings for one node or init
// block's references.
func reportTaintedRefs(mp *ModulePass, refs []FuncRef, tainted map[*types.Func]taint) {
	for _, ref := range refs {
		if desc := sourceDesc(ref.Obj); desc != "" {
			if !ref.Call {
				mp.Reportf(ref.Pos, "%s captured as a function value in model code; calls through it are untraceable — inject a deterministic substitute", desc)
			}
			continue
		}
		t, ok := taintOf(tainted, ref)
		if !ok {
			continue
		}
		if ref.Iface {
			mp.Reportf(ref.Pos, "dynamic call to %s may reach a nondeterminism source (%s)", ref.Obj.Name(), t.chain)
			continue
		}
		verb := "reference to"
		if ref.Call {
			verb = "call to"
		}
		mp.Reportf(ref.Pos, "%s %s reaches a nondeterminism source (%s)", verb, ref.Obj.Name(), t.chain)
	}
}

// unsanctionedMapRange reports whether the declaration n iterates a map
// other than in the sanctioned key-collection loop, without a reasoned
// maporder/dettaint directive; such an iteration makes the function's
// behaviour order-dependent and therefore a taint seed.
func unsanctionedMapRange(mp *ModulePass, n *fnNode) bool {
	for _, pos := range n.mapRanges {
		if !mp.SuppressedAt(pos, MapOrder.Name) && !mp.SuppressedAt(pos, "dettaint") {
			return true
		}
	}
	return false
}
