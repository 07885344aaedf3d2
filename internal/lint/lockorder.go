package lint

import (
	"fmt"
	"go/token"
	"strings"

	"r3d/internal/detmap"
)

// LockOrder builds the module's lock-acquisition graph — an edge A→B
// whenever mutex B is acquired (directly or through any chain of calls)
// while A is held — and reports every cycle as a potential deadlock
// inversion, plus re-acquisition of a mutex already held as a
// guaranteed self-deadlock. Acquisitions inside `go` statements and
// function literals start from an empty held-set (a new goroutine does
// not hold its spawner's locks), so only orderings that can actually
// nest on one goroutine produce edges.
var LockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "cyclic lock-acquisition order (potential deadlock inversion)",
	RunModule: runLockOrder,
}

// lockEdge is one A→B acquisition ordering with the earliest site that
// witnesses it.
type lockEdge struct {
	from, to lockID
	pos      token.Pos
	chain    string // call chain from the witness site to the acquire, "" if direct
}

func runLockOrder(mp *ModulePass) {
	fb := mp.facts()

	// Transitive acquisitions per function: every lock a call to f may
	// take, excluding `go` sites (new goroutine) — a union fixpoint,
	// with the shortest witness chain kept for messages.
	type acq struct{ chain string } // "" = acquired directly in the function
	trans := map[*fnNode]map[lockID]acq{}
	for _, n := range fb.nodes {
		m := map[lockID]acq{}
		for _, a := range n.acquires {
			if _, ok := m[a.id]; !ok {
				m[a.id] = acq{}
			}
		}
		trans[n] = m
	}
	for changed := true; changed; {
		changed = false
		for _, n := range fb.nodes {
			for _, c := range n.calls {
				if c.kind == callGo {
					continue
				}
				for _, callee := range fb.callees(c) {
					for _, id := range detmap.SortedKeys(trans[callee]) {
						if _, ok := trans[n][id]; ok {
							continue
						}
						chain := callee.name
						if sub := trans[callee][id].chain; sub != "" {
							chain = callee.name + " → " + sub
						}
						trans[n][id] = acq{chain: chain}
						changed = true
					}
				}
			}
		}
	}

	// Edges: direct acquisitions under a held lock, and call sites under
	// a held lock whose callee transitively acquires.
	edges := map[lockID]map[lockID]lockEdge{}
	addEdge := func(e lockEdge) {
		if mp.SuppressedAt(e.pos, "lockorder") {
			return
		}
		if edges[e.from] == nil {
			edges[e.from] = map[lockID]lockEdge{}
		}
		if old, ok := edges[e.from][e.to]; !ok || e.pos < old.pos {
			edges[e.from][e.to] = e
		}
	}
	for _, n := range fb.nodes {
		for _, a := range n.acquires {
			eff := fb.effectiveHeld(n, a.held)
			if eff[a.id] != lockNone {
				mp.Reportf(a.pos, "%s acquired while already held by %s (self-deadlock)",
					a.id.display(), n.name)
				continue
			}
			for _, from := range sortedHeld(eff) {
				addEdge(lockEdge{from: from, to: a.id, pos: a.pos})
			}
		}
		for _, c := range n.calls {
			if c.kind == callGo {
				continue
			}
			eff := fb.effectiveHeld(n, c.held)
			if len(eff) == 0 {
				continue
			}
			for _, callee := range fb.callees(c) {
				for _, id := range detmap.SortedKeys(trans[callee]) {
					chain := callee.name
					if sub := trans[callee][id].chain; sub != "" {
						chain = callee.name + " → " + sub
					}
					for _, from := range sortedHeld(eff) {
						if from == id {
							continue // re-entry through calls is mutexguard/self-deadlock territory
						}
						addEdge(lockEdge{from: from, to: id, pos: c.pos, chain: chain})
					}
				}
			}
		}
	}

	reportLockCycles(mp, edges)
}

// reportLockCycles finds every elementary cycle reachable in the
// acquisition graph and reports each once, anchored at its first edge's
// witness position, with every hop's file:line spelled out. Cycles are
// canonicalized to start at their smallest lock ID so reruns report
// identically.
func reportLockCycles(mp *ModulePass, edges map[lockID]map[lockID]lockEdge) {
	ids := detmap.SortedKeys(edges)
	reported := map[string]bool{}
	for _, start := range ids {
		// DFS for paths start → ... → start; neighbor order sorted.
		var path []lockEdge
		onPath := map[lockID]bool{start: true}
		var dfs func(cur lockID)
		dfs = func(cur lockID) {
			for _, next := range detmap.SortedKeys(edges[cur]) {
				e := edges[cur][next]
				if next == start {
					cycle := append(append([]lockEdge{}, path...), e)
					// Canonical form: smallest ID first.
					min := 0
					for i, ce := range cycle {
						if ce.from < cycle[min].from {
							min = i
						}
					}
					rot := append(append([]lockEdge{}, cycle[min:]...), cycle[:min]...)
					var key strings.Builder
					for _, ce := range rot {
						key.WriteString(string(ce.from))
						key.WriteByte('>')
					}
					if !reported[key.String()] {
						reported[key.String()] = true
						reportCycle(mp, rot)
					}
					continue
				}
				if onPath[next] {
					continue // inner cycle; found from its own smallest start
				}
				onPath[next] = true
				path = append(path, e)
				dfs(next)
				path = path[:len(path)-1]
				delete(onPath, next)
			}
		}
		dfs(start)
	}
}

func reportCycle(mp *ModulePass, cycle []lockEdge) {
	var parts []string
	for _, e := range cycle {
		hop := fmt.Sprintf("%s → %s", e.from.display(), e.to.display())
		if e.chain != "" {
			hop += " (via " + e.chain + ")"
		}
		p := mp.Fset.Position(e.pos)
		hop += fmt.Sprintf(" at %s:%d", shortFile(p.Filename), p.Line)
		parts = append(parts, hop)
	}
	mp.Reportf(cycle[0].pos, "lock-order inversion: %s — concurrent goroutines taking these in opposite order deadlock",
		strings.Join(parts, "; "))
}

// shortFile trims a filename to its last two path segments for compact
// cycle messages.
func shortFile(name string) string {
	name = strings.ReplaceAll(name, "\\", "/")
	parts := strings.Split(name, "/")
	if len(parts) <= 2 {
		return name
	}
	return strings.Join(parts[len(parts)-2:], "/")
}
