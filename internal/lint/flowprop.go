package lint

import (
	"sort"
	"strings"
)

// This file is the interprocedural layer over the fact base: for every
// function, the set of locks guaranteed to be held on entry (the meet
// over all observed call sites), the reverse call edges needed to print
// "unlocked path" chains, and the shared fixpoint that explains why a
// function may block, run forever or miss a stop signal.

// callerSite is one observed call of a function: who called it and what
// was held at the site (entry-held of the caller not yet folded in).
type callerSite struct {
	caller *fnNode
	call   *callSite
}

// callees resolves a call site to the module nodes it may reach: the
// static callee if module-defined, else the conservative
// interface-dispatch candidates.
func (fb *factBase) callees(c *callSite) []*fnNode {
	if n, ok := fb.byFn[c.callee]; ok {
		return []*fnNode{n}
	}
	var out []*fnNode
	for _, cand := range c.candidates {
		if n, ok := fb.byFn[cand.Origin()]; ok {
			out = append(out, n)
		}
	}
	return out
}

// isRoot reports whether n may be entered with nothing held whatever
// its call sites: a function literal (fresh goroutine or deferred
// context) or a function referenced as a value (it may run from
// anywhere).
func (fb *factBase) isRoot(n *fnNode) bool {
	return n.fn == nil || fb.valueRef[n.fn]
}

// siteHeld is what a call site contributes to its callee's entry set:
// ∅ for go and defer sites, because a new goroutine does not hold its
// spawner's locks and a deferred call runs after the body's paired
// unlocks.
func (fb *factBase) siteHeld(site callerSite) heldSet {
	if site.call.kind != callNormal {
		return heldSet{}
	}
	return unionHeld(fb.entry[site.caller], site.call.held)
}

// propagateEntryHeld fills callers and entry. Roots — functions with
// no observed caller and the isRoot ones — start and stay at ∅.
// Everything else starts at ⊤ (nil) and shrinks monotonically to the
// intersection over its call sites of entry(caller) ∪ heldAtSite.
func (fb *factBase) propagateEntryHeld() {
	fb.entry = map[*fnNode]heldSet{}
	fb.callers = map[*fnNode][]callerSite{}
	// Reverse edges. Interface-dispatch candidates each receive the
	// site, conservatively.
	for _, n := range fb.nodes {
		for _, c := range n.calls {
			for _, target := range fb.callees(c) {
				fb.callers[target] = append(fb.callers[target], callerSite{caller: n, call: c})
			}
		}
	}
	for _, n := range fb.nodes {
		if fb.isRoot(n) || len(fb.callers[n]) == 0 {
			fb.entry[n] = heldSet{}
		} else {
			fb.entry[n] = nil // ⊤
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range fb.nodes {
			if fb.isRoot(n) || len(fb.callers[n]) == 0 {
				continue // pinned root
			}
			var meet heldSet // ⊤
			for _, site := range fb.callers[n] {
				contrib := fb.siteHeld(site)
				if contrib == nil {
					continue // caller still ⊤; absorbs
				}
				if meet == nil {
					meet = contrib.clone()
				} else {
					meet = intersectHeld(meet, contrib)
				}
			}
			if meet == nil {
				continue // every caller still ⊤
			}
			if fb.entry[n] == nil || !heldEqual(fb.entry[n], meet) {
				// nil (⊤) only ever shrinks to a concrete set, and
				// intersection keeps shrinking it, so this terminates.
				fb.entry[n] = meet
				changed = true
			}
		}
	}
	// Anything still ⊤ sits on a caller cycle unreachable from any
	// root; assume nothing about its locks so its accesses still get
	// checked.
	for _, n := range fb.nodes {
		if fb.entry[n] == nil {
			fb.entry[n] = heldSet{}
		}
	}
}

// effectiveHeld is the full held-set at a program point: the function's
// guaranteed entry locks joined with the locally tracked ones.
func (fb *factBase) effectiveHeld(n *fnNode, local heldSet) heldSet {
	return unionHeld(fb.entry[n], local)
}

// unlockedPath reconstructs one deterministic call chain ending at n
// along which id is never held, for "how did we get here without the
// lock" messages. Returns "" when n is itself a root (directly
// reachable with nothing held).
func (fb *factBase) unlockedPath(n *fnNode, id lockID) string {
	type step struct {
		node *fnNode
		prev *step
	}
	seen := map[*fnNode]bool{n: true}
	queue := []*step{{node: n}}
	var rootStep *step
	for len(queue) > 0 && rootStep == nil {
		s := queue[0]
		queue = queue[1:]
		sites := fb.callers[s.node]
		if len(sites) == 0 || fb.isRoot(s.node) {
			if s.prev != nil { // a chain of at least one edge
				rootStep = s
			}
			continue
		}
		// Deterministic order: caller position then call position.
		ordered := make([]callerSite, len(sites))
		copy(ordered, sites)
		sort.Slice(ordered, func(i, j int) bool {
			if ordered[i].caller.pos != ordered[j].caller.pos {
				return ordered[i].caller.pos < ordered[j].caller.pos
			}
			return ordered[i].call.pos < ordered[j].call.pos
		})
		for _, site := range ordered {
			// Only follow edges that do NOT establish the lock: those
			// are the paths the finding is about.
			if seen[site.caller] || fb.siteHeld(site)[id] != lockNone {
				continue
			}
			seen[site.caller] = true
			queue = append(queue, &step{node: site.caller, prev: s})
		}
	}
	if rootStep == nil {
		return ""
	}
	var names []string
	for s := rootStep; s != nil; s = s.prev {
		names = append(names, s.node.name)
	}
	return strings.Join(names, " → ")
}

// chains explains, for every node that has one, why it has a property
// that flows backwards along calls (it may block, may never return,
// reaches an unobserved blocking loop): the chain "f → g → reason"
// from the node to a seed. seed gives a node's own reason; via gives
// the chain a call passes on, given the chains found so far (usually
// calleeChain, behind the analyzer's filter), or false. Seeds come
// first, then sweeps in position order with each node's calls in
// source order, so each node keeps its positional-first chain and
// findings print the same chain on every run.
func (fb *factBase) chains(seed func(*fnNode) (string, bool), via func(*fnNode, *callSite, map[*fnNode]string) (string, bool)) map[*fnNode]string {
	out := map[*fnNode]string{}
	for _, n := range fb.nodes {
		if reason, ok := seed(n); ok {
			out[n] = n.name + " → " + reason
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range fb.nodes {
			if _, ok := out[n]; ok {
				continue
			}
			for _, c := range n.calls {
				if chain, ok := via(n, c, out); ok {
					out[n] = n.name + " → " + chain
					changed = true
					break
				}
			}
		}
	}
	return out
}

// calleeChain returns the chain of the first node c may reach that has
// one.
func (fb *factBase) calleeChain(chains map[*fnNode]string, c *callSite) (string, bool) {
	for _, callee := range fb.callees(c) {
		if chain, ok := chains[callee]; ok {
			return chain, true
		}
	}
	return "", false
}
