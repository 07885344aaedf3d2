package lint

// MutexGuard enforces `// r3dlint:guardedby <mutex>` annotations: every
// read of annotated state must happen with the named mutex held (RLock
// suffices for an RWMutex), every write with it held exclusively. The
// locks-held set is propagated interprocedurally — a helper that never
// locks itself is still in the clear when every observed call site
// enters it with the mutex held (the `fooLocked` idiom, checked rather
// than trusted) — and a violation's message shows one concrete call
// chain that reaches the access with the mutex not held.
var MutexGuard = &Analyzer{
	Name:      "mutexguard",
	Doc:       "annotated state accessed without its guarding mutex held",
	RunModule: runMutexGuard,
}

func runMutexGuard(mp *ModulePass) {
	fb := mp.facts()
	fb.reportAnnErrs(mp)
	if len(fb.guards) == 0 {
		return
	}

	// `x.f = append(x.f, v)` touches the field twice on one line; keep
	// one violation per line and target — the write if there is one —
	// rather than reporting the read and the write separately.
	type violation struct {
		node   *fnNode
		access guardAccess
		mode   lockMode // effective hold strength at the access
	}
	type vkey struct {
		file   string
		line   int
		target string
	}
	best := map[vkey]violation{}
	var order []vkey
	for _, n := range fb.nodes {
		for _, a := range n.accesses {
			g := fb.guards[a.target]
			mode := fb.effectiveHeld(n, a.held)[g.guard]
			if (a.write && mode == lockWrite) || (!a.write && mode >= lockRead) {
				continue // satisfied
			}
			p := mp.Fset.Position(a.pos)
			k := vkey{file: p.Filename, line: p.Line, target: g.target}
			old, seen := best[k]
			if !seen {
				order = append(order, k)
				best[k] = violation{node: n, access: a, mode: mode}
				continue
			}
			if (a.write && !old.access.write) || (a.write == old.access.write && a.pos < old.access.pos) {
				best[k] = violation{node: n, access: a, mode: mode}
			}
		}
	}

	for _, k := range order {
		v := best[k]
		a, g := v.access, fb.guards[v.access.target]
		if a.write && v.mode == lockRead {
			mp.Reportf(a.pos, "write to %s with %s held only for reading; writes need the exclusive Lock",
				g.target, g.guard.display())
			continue
		}
		verb := "read of"
		if a.write {
			verb = "write to"
		}
		msg := "%s %s without %s held"
		args := []any{verb, g.target, g.guard.display()}
		if chain := fb.unlockedPath(v.node, g.guard); chain != "" {
			msg += " (unlocked path: %s)"
			args = append(args, chain)
		}
		mp.Reportf(a.pos, msg, args...)
	}
}
