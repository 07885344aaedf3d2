package experiment

import (
	"fmt"

	"r3d/internal/core"
	"r3d/internal/nuca"
	"r3d/internal/ooo"
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

// computeRun is the engine's compute function: it resolves the key and
// returns the simulation's value. It must stay a pure function of the
// key (given the session's quality): the engine memoizes it and runs
// it from pool workers.
//
// A call for a key the engine already holds is a shadow
// re-verification, which must recompute from scratch: it simulates
// and neither reads nor fills the session's window memo.
func (s *Session) computeRun(k RunKey) (runValue, error) {
	w, err := resolveWindow(k)
	if err != nil {
		return runValue{}, err
	}
	if s.eng.Has(k) {
		return s.simulate(w)
	}
	for {
		s.simMu.Lock()
		if v, ok := s.sims[w]; ok {
			s.shared[k] = true
			s.simMu.Unlock()
			return v, nil
		}
		if done, ok := s.simInflight[w]; ok {
			s.simMu.Unlock()
			// The simulating key either published its value before
			// closing done, or withdrew on error; either way look again.
			<-done
			continue
		}
		done := make(chan struct{})
		s.simInflight[w] = done
		s.simMu.Unlock()

		v, err := s.simulate(w)
		s.simMu.Lock()
		if err == nil {
			s.sims[w] = v
		}
		delete(s.simInflight, w)
		s.simMu.Unlock()
		close(done)
		return v, err
	}
}

// simulate runs one window from scratch, with no session lock held.
func (s *Session) simulate(w windowSpec) (runValue, error) {
	if w.sys == (core.Config{}) {
		r, err := s.simulateLeading(w)
		return runValue{lead: r}, err
	}
	r, err := s.simulateRMT(w)
	return runValue{rmt: r}, err
}

// simulateLeading runs a standalone leading-core window.
func (s *Session) simulateLeading(w windowSpec) (LeadRun, error) {
	g := trace.MustGenerator(w.profile, w.seed)
	l2 := nuca.New(w.l2.nucaConfig(w.policy))
	c, err := ooo.New(w.lead, g, l2)
	if err != nil {
		return LeadRun{}, err
	}
	c.Run(s.Q.WarmupInsts)
	c.ResetStats()
	c.SetFetchBudget(^uint64(0))
	for c.Committed() < s.Q.MeasureInsts {
		c.Step(w.lead.CommitWidth)
	}
	return LeadRun{
		Bench:   w.profile.Name,
		Stats:   c.Stats(),
		L2Stats: l2.Stats(),
		Pred:    c.PredictorStats().MispredictRate(),
	}, nil
}

// simulateRMT runs a coupled leading+checker window.
func (s *Session) simulateRMT(w windowSpec) (RMTRun, error) {
	g := trace.MustGenerator(w.profile, w.seed)
	l2 := nuca.New(w.l2.nucaConfig(w.policy))
	lead, err := ooo.New(w.lead, g, l2)
	if err != nil {
		return RMTRun{}, err
	}
	sys, err := core.New(w.sys, lead)
	if err != nil {
		return RMTRun{}, err
	}
	sys.Run(s.Q.WarmupInsts)
	sys.ResetStats()
	lead.SetFetchBudget(^uint64(0))
	for lead.Committed() < s.Q.MeasureInsts {
		sys.Step()
	}
	cs := sys.Checker().Stats()
	util := 0.0
	if cs.Cycles > 0 {
		util = float64(cs.Issued) / float64(cs.Cycles) / float64(w.sys.Checker.Width)
	}
	return RMTRun{
		Bench:         w.profile.Name,
		Lead:          lead.Stats(),
		Sys:           sys.Stats(),
		CheckerIPC:    cs.IPC(),
		CheckerUtil:   util,
		MeanFreqGHz:   sys.MeanCheckerFreqGHz(),
		FreqFractions: sys.FreqResidency().Fractions(),
	}, nil
}
