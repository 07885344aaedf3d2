package experiment

import (
	"slices"

	"r3d/internal/ooo"
	"r3d/internal/trace"
)

// A group is the windows of the running batches that share one leading
// core — stream, L2 organization, NUCA policy and core config — run as
// one. A trunk core runs the standalone window of that core, stepped at
// full commit width, and every coupled window runs its own queues, DFS
// and checker against the trunk's commits, cycle by cycle. A coupled
// window stays on the trunk for as long as its commit budget is at least
// what the trunk commits (ooo.Core.NextCommits): a Step with that budget
// leaves the core exactly as the trunk's full-width Step does. At the
// first cycle its budget is lower, the window forks: it copies the trunk
// as it stands onto a branch core, steps that cycle itself and finishes
// alone, before the trunk moves on. So a group holds at most two
// leading cores, and every window's value is the one it computes alone.
type group struct {
	s     *Session
	setup *setUp
	// trunk is the standalone window of the group's leading core, and
	// src the trunk core's stream.
	trunk *window
	src   *trace.TapeReader
	// attached holds the coupled windows that have not forked.
	attached []*window
	// branch is the core forked windows finish on, once one has forked.
	branch    *ooo.Core
	measuring bool
	vals      map[windowSpec]runValue
}

// fromGroup returns w's value from the run of its group, running the
// group unless another worker has: ok is false when w is in no group
// (setUp.group), or is missing from the run of the group it joined (w
// then simulates alone).
func (s *Session) fromGroup(w windowSpec, setup *setUp) (runValue, bool) {
	if setup == nil {
		return runValue{}, false
	}
	members := setup.group(w)
	if members == nil {
		return runValue{}, false
	}
	t := w.trunk()
	vals, _, err := setup.runs.Do(t, func() (map[windowSpec]runValue, error) {
		return s.simulateGroup(t, members, setup), nil
	})
	if err != nil {
		return runValue{}, false
	}
	v, ok := vals[w]
	return v, ok
}

// simulateGroup runs the windows members, the trunk window t among
// them, as one group, and returns their values. A member whose system
// cannot be built is left out: it simulates alone, and fails there.
func (s *Session) simulateGroup(t windowSpec, members []windowSpec, setup *setUp) map[windowSpec]runValue {
	src := setup.reader(t.profile, t.seed)
	c, err := setup.core(t, src)
	if err != nil {
		return nil
	}
	g := &group{s: s, setup: setup, trunk: &window{spec: t, c: c}, src: src, vals: map[windowSpec]runValue{}}
	for _, w := range members {
		if w == t {
			continue
		}
		if win, err := newWindow(w, c); err == nil {
			g.attached = append(g.attached, win)
		}
	}
	c.SetFetchBudget(s.Q.WarmupInsts)
	s.drive(g, false)
	g.vals[t] = g.trunk.value()
	for _, w := range g.attached {
		g.vals[w.spec] = w.value()
	}
	// The trunk goes back last, so the next window takes it: the branch,
	// whose L2 holds only the trunk's organization, stays the smaller
	// core when the next windows need a larger L2.
	if g.branch != nil {
		setup.done(g.branch)
	}
	setup.done(c)
	return g.vals
}

func (g *group) stepUntil(n uint64, drain bool) {
	for c := g.trunk.c; c.Committed() < n && !(drain && c.Drained()); {
		g.step()
	}
}

// endWarmup ends the warm-up of every window on the trunk. Each coupled
// window resets the trunk's statistics and lifts its fetch budget again,
// which the trunk's window has just done: the second time changes
// nothing.
func (g *group) endWarmup() {
	g.trunk.endWarmup()
	for _, w := range g.attached {
		w.endWarmup()
	}
	g.measuring = true
}

// step runs one cycle of the group: a coupled window whose budget is
// below what the trunk will commit forks, the trunk steps at full width,
// and the windows still on it take its commits. A cycle in which the
// trunk commits nothing forks no window, so a quiet stretch of the trunk
// runs in one call: the trunk skips it, and each window still on it
// runs the stretch alone (core.System.StepQuiet).
func (g *group) step() {
	if k := g.trunk.c.Quiet(); k > 0 {
		g.trunk.c.Skip(k)
		for _, w := range g.attached {
			w.sys.StepQuiet(k)
		}
		return
	}
	n := g.trunk.c.NextCommits()
	for i := 0; n > 0 && i < len(g.attached); {
		if w := g.attached[i]; w.sys.Budget() < n {
			g.fork(w)
			g.attached = slices.Delete(g.attached, i, i+1)
			continue
		}
		i++
	}
	committed := g.trunk.c.Step(g.trunk.spec.lead.CommitWidth)
	for _, w := range g.attached {
		w.sys.StepOn(committed)
	}
}

// fork moves w onto a copy of the trunk as it stands and runs it to its
// end, starting with the cycle the trunk is about to step.
func (g *group) fork(w *window) {
	if g.branch == nil {
		if g.branch = g.setup.idle(); g.branch == nil {
			g.branch = new(ooo.Core)
		}
	}
	g.trunk.c.CopyTo(g.branch, g.src.Clone())
	w.c = g.branch
	w.sys.SetLead(g.branch)
	g.s.drive(w, g.measuring)
	g.vals[w.spec] = w.value()
}
