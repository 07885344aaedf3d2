package experiment

import (
	"fmt"

	"r3d/internal/core"
	"r3d/internal/nuca"
	"r3d/internal/ooo"
	"r3d/internal/runsched"
	"r3d/internal/trace"
)

// windowSpec is the simulation a RunKey stands for: everything the
// window's values depend on besides the session quality, with every
// config resolved to what the simulator runs. It is comparable, so
// keys with equal specs name the same simulation, which the session
// runs once.
type windowSpec struct {
	profile trace.Profile
	seed    int64
	l2      L2Config
	policy  nuca.Policy
	// lead is the leading core's config, its memory latency resolved.
	lead ooo.Config
	// sys is the coupled system's config; zero for a standalone
	// leading-core window.
	sys core.Config
}

// resolveWindow turns a key into the simulation it names. It reads
// only the key fields its kind uses.
func resolveWindow(k RunKey) (windowSpec, error) {
	b, err := trace.ByName(k.Bench)
	if err != nil {
		return windowSpec{}, err
	}
	w := windowSpec{profile: b.Profile, seed: k.Seed, l2: k.L2, lead: ooo.Default()}
	if k.Kind == KindLeading {
		w.policy = k.Policy
		if k.MemLatency > 0 {
			w.lead.MemLatencyCycles = k.MemLatency
		}
		return w, nil
	}
	// Coupled windows always run distributed sets.
	w.policy = nuca.DistributedSets
	w.sys = core.Default(w.lead)
	switch k.Kind {
	case KindRMT:
		w.sys.CheckerMaxFreqGHz = k.CheckerCGHz.GHz()
	case KindDFSVariant:
		found := false
		for _, v := range DFSVariants() {
			if v.Name == k.DFSVariant {
				w.sys.RVQLo, w.sys.RVQHi, w.sys.DFSIntervalCycles = v.Lo, v.Hi, v.Interval
				w.sys.EmergencyRamp = v.Emergency
				found = true
				break
			}
		}
		if !found {
			return windowSpec{}, fmt.Errorf("experiment: unknown DFS variant %q", k.DFSVariant)
		}
	case KindRVQSize:
		// Thresholds scale with the capacity to the same 30%/60% points.
		w.sys.RVQSize = k.RVQSize
		w.sys.RVQLo = k.RVQSize * 3 / 10
		w.sys.RVQHi = k.RVQSize * 6 / 10
	default:
		return windowSpec{}, fmt.Errorf("experiment: unknown run kind %d", k.Kind)
	}
	return w, nil
}

// trunk returns the standalone leading-core window of w's leading core:
// w itself for a leading-core window, and for a coupled one the window
// of its stream, L2, policy and core config without the checker.
func (w windowSpec) trunk() windowSpec {
	w.sys = core.Config{}
	return w
}

// computeRun is the engine's compute function: it resolves the key and
// returns the simulation's value. It must stay a pure function of the
// key (given the session's quality): the engine memoizes it and runs
// it from pool workers.
//
// A call for a key the engine already holds is a shadow
// re-verification, which must recompute from scratch: it simulates
// from a fresh generator and fresh tables, without the batches' shared
// set-up, and neither reads nor fills the session's window memo.
func (s *Session) computeRun(k RunKey) (runValue, error) {
	w, err := resolveWindow(k)
	if err != nil {
		return runValue{}, err
	}
	if s.eng.Has(k) {
		return s.simulate(w, nil)
	}
	v, how, err := s.sims.Do(w, func() (runValue, error) {
		s.simMu.Lock()
		setup := s.setup
		s.simMu.Unlock()
		if v, ok := s.fromGroup(w, setup); ok {
			return v, nil
		}
		return s.simulate(w, setup)
	})
	if how != runsched.Computed {
		s.simMu.Lock()
		s.shared[k] = true
		s.simMu.Unlock()
	}
	return v, err
}

// simulate runs one window alone over the given set-up (nil: from
// scratch), with no session lock held.
func (s *Session) simulate(w windowSpec, setup *setUp) (runValue, error) {
	c, err := setup.core(w, setup.stream(w.profile, w.seed))
	if err != nil {
		return runValue{}, err
	}
	defer setup.done(c)
	win, err := newWindow(w, c)
	if err != nil {
		return runValue{}, err
	}
	c.SetFetchBudget(s.Q.WarmupInsts)
	s.drive(win, false)
	return win.value(), nil
}

// A run is what drive steps: one window, or a group of windows on a
// shared leading core (group.go).
type run interface {
	// stepUntil steps until the leading core has committed n
	// instructions or, with drain, its pipeline has drained.
	stepUntil(n uint64, drain bool)
	// endWarmup discards the warm-up's statistics and lifts the fetch
	// budget.
	endWarmup()
}

// drive steps r through the rest of its window. Unless measuring, that
// starts with the warm-up, which ends once Q.WarmupInsts leading-core
// instructions have committed (or the pipeline has drained); the
// measurement ends once Q.MeasureInsts have committed. A window starts
// with its fetch budget at Q.WarmupInsts.
func (s *Session) drive(r run, measuring bool) {
	if !measuring {
		r.stepUntil(s.Q.WarmupInsts, true)
		r.endWarmup()
	}
	r.stepUntil(s.Q.MeasureInsts, false)
}

// window is one simulation window as it runs: a standalone leading core,
// or a coupled system over it (sys non-nil).
type window struct {
	spec windowSpec
	c    *ooo.Core
	sys  *core.System
}

// newWindow sets window w up on the cold leading core c.
func newWindow(w windowSpec, c *ooo.Core) (*window, error) {
	win := &window{spec: w, c: c}
	if w.sys != (core.Config{}) {
		sys, err := core.New(w.sys, c)
		if err != nil {
			return nil, err
		}
		win.sys = sys
	}
	return win, nil
}

// stepUntil runs each quiet stretch of the leading core in one call: a
// standalone core skips it, and a coupled system runs it after its core
// has (core.System.Advance).
func (w *window) stepUntil(n uint64, drain bool) {
	for c := w.c; c.Committed() < n && !(drain && c.Drained()); {
		if w.sys == nil {
			c.Advance(w.spec.lead.CommitWidth)
		} else {
			w.sys.Advance(^uint64(0))
		}
	}
}

func (w *window) endWarmup() {
	if w.sys == nil {
		w.c.ResetStats()
	} else {
		w.sys.ResetStats()
	}
	w.c.SetFetchBudget(^uint64(0))
}

// value returns the window's result.
func (w *window) value() runValue {
	if w.sys == nil {
		return runValue{lead: LeadRun{
			Bench:   w.spec.profile.Name,
			Stats:   w.c.Stats(),
			L2Stats: w.c.L2().Stats(),
			Pred:    w.c.PredictorStats().MispredictRate(),
		}}
	}
	cs := w.sys.Checker().Stats()
	util := 0.0
	if cs.Cycles > 0 {
		util = float64(cs.Issued) / float64(cs.Cycles) / float64(w.spec.sys.Checker.Width)
	}
	return runValue{rmt: RMTRun{
		Bench:         w.spec.profile.Name,
		Lead:          w.c.Stats(),
		Sys:           w.sys.Stats(),
		CheckerIPC:    cs.IPC(),
		CheckerUtil:   util,
		MeanFreqGHz:   w.sys.MeanCheckerFreqGHz(),
		FreqFractions: w.sys.FreqResidency().Fractions(),
	}}
}
