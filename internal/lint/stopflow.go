package lint

import (
	"go/types"
	"strings"
)

// StopFlow enforces cancellation propagation: a function that receives
// a stop/done channel (directly, or as a stop-like channel field of a
// config/options parameter) or a context.Context must propagate it into
// every loop containing an indefinitely blocking operation it
// transitively reaches — the loop must have a select clause receiving
// that signal (any terminating stop-like clause counts: exiting on a
// local timeout or a receiver's drain channel is a deliberate signal
// choice), or forward the signal into the blocking callee as an
// argument. Blocking reached through calls is found by a
// select-coverage fixpoint over the call graph, reusing the blockhold
// blocking-op lattice minus the finite waits (sleeps, local file I/O)
// that a stop signal cannot shorten. Findings land in the function
// holding the obligation: at the uncovered loop, or at the call whose
// callee chain blocks without ever observing the signal. A reasoned
// `//lint:ignore stopflow <reason>` on the loop or call stops
// propagation, dettaint-style.
var StopFlow = &Analyzer{
	Name:      "stopflow",
	Doc:       "stop/done channel or context not propagated into a blocking loop",
	RunModule: runStopFlow,
}

// stopSource is one stop signal a function receives.
type stopSource struct {
	obj   types.Object // the parameter carrying the signal
	field string       // field name when the channel sits in a struct param
	disp  string
	isCtx bool
}

func runStopFlow(mp *ModulePass) {
	fb := mp.facts()

	sources := map[*fnNode][]stopSource{}
	for _, n := range fb.nodes {
		sources[n] = stopSourcesOf(n)
	}

	// mayBlock[f] explains why calling f may block indefinitely.
	mayBlock := fb.chains(func(n *fnNode) (string, bool) {
		return firstIndefinite(n.blocks)
	}, func(_ *fnNode, c *callSite, mayBlock map[*fnNode]string) (string, bool) {
		if c.kind != callNormal {
			return "", false
		}
		return fb.calleeChain(mayBlock, c)
	})

	// needsStop[f] explains why f (which receives no stop signal of its
	// own) reaches a blocking loop that observes no stop signal at all.
	// Propagation stops at obligation holders: they get their own
	// findings, and their callers discharge the obligation by passing
	// the signal to them.
	needsStop := fb.chains(func(n *fnNode) (string, bool) {
		if len(sources[n]) > 0 {
			return "", false
		}
		for _, l := range n.loops {
			if len(l.stops) > 0 || mp.SuppressedAt(l.pos, "stopflow") {
				continue
			}
			if desc, blocks := loopBlockDesc(fb, mayBlock, l, nil); blocks {
				return l.desc + " blocking on " + desc, true
			}
		}
		return "", false
	}, func(n *fnNode, c *callSite, needsStop map[*fnNode]string) (string, bool) {
		if len(sources[n]) > 0 || c.kind != callNormal || mp.SuppressedAt(c.pos, "stopflow") {
			return "", false
		}
		return fb.calleeChain(needsStop, c)
	})

	// Findings in obligation holders.
	for _, n := range fb.nodes {
		srcs := sources[n]
		if len(srcs) == 0 {
			continue
		}
		for _, l := range n.loops {
			if loopObserves(l, srcs) || mp.SuppressedAt(l.pos, "stopflow") {
				continue
			}
			desc, blocks := loopBlockDesc(fb, mayBlock, l, srcs)
			if !blocks {
				continue
			}
			mp.Reportf(l.pos, "%s blocks (%s) but never selects on %s; propagate the stop signal into the loop",
				l.desc, desc, sourceNames(srcs))
		}
		for _, c := range n.calls {
			if c.kind != callNormal || mp.SuppressedAt(c.pos, "stopflow") {
				continue
			}
			if chain, ok := fb.calleeChain(needsStop, c); ok {
				mp.Reportf(c.pos, "call may reach a blocking loop that never observes %s (%s)",
					sourceNames(srcs), chain)
			}
		}
	}
}

// loopBlockDesc reports whether the loop contains an indefinitely
// blocking operation, directly or through the calls it makes, with a
// description (direct op) or chain (through calls) for the message.
// A call that forwards one of the holder's stop sources as an argument
// discharges the obligation for that call: the callee receives the
// signal, and if it ignores it the callee gets its own finding.
func loopBlockDesc(fb *factBase, mayBlock map[*fnNode]string, l *loop, srcs []stopSource) (string, bool) {
	if desc, ok := firstIndefinite(l.blocks); ok {
		return desc, true
	}
	for _, c := range l.calls {
		if c.kind != callNormal || forwardsSource(c, srcs) {
			continue
		}
		if chain, ok := fb.calleeChain(mayBlock, c); ok {
			return chain, true
		}
	}
	return "", false
}

// loopObserves reports whether the loop provably exits on a stop
// signal: a select clause receiving one of the function's own stop
// sources, or any terminating stop-like clause — a loop that leaves on
// *some* stop channel has made a deliberate signal choice, even when
// the channel is a local timeout or a receiver field rather than the
// parameter this function was handed.
func loopObserves(l *loop, srcs []stopSource) bool {
	for _, sr := range l.stops {
		if sr.terminates {
			return true
		}
		if matchesSource(sr, srcs) {
			return true
		}
	}
	return false
}

// forwardsSource reports whether the call passes one of the stop
// sources (or its stop-like field) to the callee as an argument.
func forwardsSource(c *callSite, srcs []stopSource) bool {
	for _, sr := range c.stopArgs {
		if matchesSource(sr, srcs) {
			return true
		}
	}
	return false
}

// matchesSource reports whether a received/forwarded stop channel is
// rooted in one of the function's stop sources.
func matchesSource(sr stopRecv, srcs []stopSource) bool {
	if sr.root == nil {
		return false
	}
	for _, s := range srcs {
		if sr.root != s.obj {
			continue
		}
		if s.field == "" || s.isCtx || sr.field == s.field {
			return true
		}
	}
	return false
}

// stopSourcesOf derives the stop signals a function receives from its
// parameter list: stop-like channel parameters, context.Context
// parameters, and stop-like channel fields of struct parameters.
func stopSourcesOf(n *fnNode) []stopSource {
	if n.sig == nil {
		return nil
	}
	var out []stopSource
	params := n.sig.Params()
	for i := 0; i < params.Len(); i++ {
		v := params.At(i)
		if v.Name() == "" || v.Name() == "_" {
			continue
		}
		t := v.Type()
		if _, isChan := t.Underlying().(*types.Chan); isChan {
			if stopLikeName(v.Name()) {
				out = append(out, stopSource{obj: v, disp: v.Name()})
			}
			continue
		}
		if isContextType(t) {
			out = append(out, stopSource{obj: v, disp: v.Name() + ".Done()", isCtx: true})
			continue
		}
		st := t
		if ptr, isPtr := st.Underlying().(*types.Pointer); isPtr {
			st = ptr.Elem()
		}
		if s, isStruct := st.Underlying().(*types.Struct); isStruct {
			for j := 0; j < s.NumFields(); j++ {
				f := s.Field(j)
				if _, isChan := f.Type().Underlying().(*types.Chan); isChan && stopLikeName(f.Name()) {
					out = append(out, stopSource{obj: v, field: f.Name(), disp: v.Name() + "." + f.Name()})
				}
			}
		}
	}
	return out
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// sourceNames renders the function's stop sources for messages.
func sourceNames(srcs []stopSource) string {
	var names []string
	for _, s := range srcs {
		names = append(names, s.disp)
	}
	return strings.Join(names, " or ")
}
