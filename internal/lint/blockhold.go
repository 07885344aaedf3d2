package lint

import (
	"strings"
)

// BlockHold flags blocking operations — channel sends/receives, selects
// without a default, time.Sleep, file and network I/O, WaitGroup/Cond
// waits, and calls to functions annotated `// r3dlint:blocks <reason>`
// (e.g. a whole-grid thermal solve) — reached while a mutex is held.
// Blocking reached through calls is reported at the frontier: the call
// site inside the critical section, with the chain down to the actual
// operation spelled out dettaint-style. A reasoned
// `//lint:ignore blockhold <reason>` on the operation itself stops
// propagation, so a justified block (a journal fsync that must sit
// inside the commit critical section) does not taint every caller.
var BlockHold = &Analyzer{
	Name:      "blockhold",
	Doc:       "blocking operation reached while a mutex is held",
	RunModule: runBlockHold,
}

func runBlockHold(mp *ModulePass) {
	fb := mp.facts()

	// blockChain[f] explains why calling f may block: the positional-
	// first chain from f to a blocking operation. Seeds whose operation
	// carries a reasoned blockhold directive are skipped and do not
	// propagate. Goroutines block on their own time and defers run at
	// exit, so only plain calls pass a chain on.
	blockChain := fb.chains(func(n *fnNode) (string, bool) {
		for _, b := range n.blocks {
			if !mp.SuppressedAt(b.pos, "blockhold") {
				return b.desc, true
			}
		}
		return "", false
	}, func(_ *fnNode, c *callSite, blockChain map[*fnNode]string) (string, bool) {
		if c.kind != callNormal {
			return "", false
		}
		return callBlockChain(mp, fb, blockChain, c)
	})

	// Findings at the frontier: a blocking operation or a call to a
	// blocking function, at a point where this function itself holds a
	// lock locally. Inherited (entry-held) locks are deliberately not
	// reported here — the caller that actually took the lock holds the
	// critical section and gets the finding at its own call site.
	for _, n := range fb.nodes {
		for _, b := range n.blocks {
			if len(b.held) == 0 || mp.SuppressedAt(b.pos, "blockhold") {
				continue
			}
			mp.Reportf(b.pos, "%s while %s held", b.desc, heldNames(b.held))
		}
		for _, c := range n.calls {
			if c.kind != callNormal || len(c.held) == 0 {
				continue
			}
			chain, ok := callBlockChain(mp, fb, blockChain, c)
			if !ok {
				continue
			}
			mp.Reportf(c.pos, "call may block (%s) while %s held", chain, heldNames(c.held))
		}
	}
}

// callBlockChain explains why the call c may block: the callee is
// annotated r3dlint:blocks, or it transitively reaches a blocking
// operation. A reasoned blockhold directive at the call site stops the
// classification (and, during the fixpoint, propagation past it).
func callBlockChain(mp *ModulePass, fb *factBase, blockChain map[*fnNode]string, c *callSite) (string, bool) {
	if mp.SuppressedAt(c.pos, "blockhold") {
		return "", false
	}
	if reason, ok := fb.blocksAnn[c.callee]; ok {
		return c.callee.Name() + " (" + reason + ")", true
	}
	return fb.calleeChain(blockChain, c)
}

// heldNames renders a held-set for messages, e.g.
// "runsched.Engine.mu", or "a and b" when several are held.
func heldNames(h heldSet) string {
	var names []string
	for _, id := range sortedHeld(h) {
		names = append(names, id.display())
	}
	switch len(names) {
	case 1:
		return names[0] + " is"
	default:
		return strings.Join(names, " and ") + " are"
	}
}
