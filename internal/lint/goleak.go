package lint

// GoLeak requires every `go` statement to have a provable termination
// path: the spawned body provably returns (no endless loop reachable
// through its calls), selects on a stop/done/ctx-like channel and exits
// the loop on it, or is joined via a WaitGroup that is Wait-ed in the
// spawner's top-level declaration. Intentional process-lifetime daemons
// opt in with `// r3dlint:daemon <reason>` on the spawned function's
// declaration or on the `go` statement itself; a reasoned
// `//lint:ignore goleak <reason>` on an endless loop stops it from
// tainting callers, dettaint-style.
//
// The termination proof is conservative: a `for` without a condition
// and a `for range` over a channel count as never-terminating even if a
// conditional return hides inside — restructure the loop (bounded
// retries with an explicit cap pass; see campaign.runTrial) or annotate
// the daemon.
var GoLeak = &Analyzer{
	Name:      "goleak",
	Doc:       "spawned goroutine has no provable termination path",
	RunModule: runGoLeak,
}

func runGoLeak(mp *ModulePass) {
	fb := mp.facts()
	fb.reportAnnErrs(mp)

	// forever[f] explains why f may never return: the positional-first
	// chain from f to an uncovered endless loop. Seeds whose loop
	// carries a reasoned goleak directive are skipped and do not
	// propagate; neither does a call carrying one.
	forever := fb.chains(func(n *fnNode) (string, bool) {
		for _, l := range n.loops {
			if l.unbounded && !l.covered() && !mp.SuppressedAt(l.pos, "goleak") {
				return l.desc, true
			}
		}
		return "", false
	}, func(_ *fnNode, c *callSite, forever map[*fnNode]string) (string, bool) {
		// A spawned callee blocks on its own goroutine.
		if c.kind == callGo || mp.SuppressedAt(c.pos, "goleak") {
			return "", false
		}
		return fb.calleeChain(forever, c)
	})

	// Findings at spawn sites: the body may run forever and no excuse
	// applies — not joined, not daemon-annotated.
	for _, n := range fb.nodes {
		for _, sp := range n.spawns {
			if sp.joined || fb.daemonAt(sp.pos, sp.target) {
				continue
			}
			body := fb.spawnBody(sp)
			if body == nil {
				continue // stdlib or func-value spawn: no module body to prove against
			}
			chain, ok := forever[body]
			if !ok {
				continue // body provably returns
			}
			mp.Reportf(sp.pos,
				"goroutine may never terminate (%s); join it with a WaitGroup, select on a stop channel in the loop, or annotate the daemon: // r3dlint:daemon <reason>",
				chain)
		}
	}
}
