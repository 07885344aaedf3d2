package core

import (
	"math"
	"testing"
)

// TestTrafficAccounting checks the queue-traffic invariants: every
// committed instruction transmits one register-value bundle, and loads,
// stores and branches are disjoint subsets of it.
func TestTrafficAccounting(t *testing.T) {
	s := newSystem(t, "bzip2", 31)
	st := s.Run(60000)
	tr := st.Traffic
	if tr.LoadValues+tr.StoreValues+tr.BranchOutcomes > tr.RegisterValues {
		t.Errorf("queue subsets exceed the RVQ stream: %+v", tr)
	}
	if tr.RegisterValues != s.Lead().Stats().Instructions {
		t.Errorf("RVQ pushes %d != committed %d", tr.RegisterValues, s.Lead().Stats().Instructions)
	}
}

// TestWallClockConsistency checks that wall time equals cycles times the
// leading period and that the residency histogram accounts for all of
// it.
func TestWallClockConsistency(t *testing.T) {
	s := newSystem(t, "gap", 32)
	st := s.Run(50000)
	wantPs := float64(st.Cycles) * 500.0
	if math.Abs(st.WallTimePs-wantPs) > 1 {
		t.Errorf("wall time %.0f ps, want cycles×500 = %.0f", st.WallTimePs, wantPs)
	}
	if math.Abs(s.FreqResidency().Total()-st.WallTimePs) > 1 {
		t.Errorf("histogram mass %.0f != wall time %.0f", s.FreqResidency().Total(), st.WallTimePs)
	}
}

// TestRecoveryStallAccounting checks that every recovered error charges
// the configured stall penalty.
func TestRecoveryStallAccounting(t *testing.T) {
	s := newSystem(t, "gzip", 33)
	s.Run(5000)
	s.CorruptNextLeadResult(0xff)
	st := s.Run(40000)
	if st.ErrorsRecovered == 0 {
		t.Fatal("no recovery happened")
	}
	want := st.ErrorsRecovered * uint64(Default(s.cfg.Lead).RecoveryPenaltyCycles)
	if st.RecoveryStalls != want {
		t.Errorf("recovery stalls %d, want %d (%d recoveries × penalty)",
			st.RecoveryStalls, want, st.ErrorsRecovered)
	}
}

// TestQueueOccupancyNeverExceedsCapacity steps a system manually and
// asserts the RVQ bound holds every cycle.
func TestQueueOccupancyNeverExceedsCapacity(t *testing.T) {
	s := newSystem(t, "mesa", 34)
	s.Lead().SetFetchBudget(1 << 60)
	for i := 0; i < 30000; i++ {
		s.Step()
		if occ := s.RVQOccupancy(); occ < 0 || occ > DefaultRVQSize {
			t.Fatalf("cycle %d: RVQ occupancy %d out of bounds", i, occ)
		}
	}
}

// TestDrainBarrier checks the interrupt barrier: after Drain the
// checker has verified everything the leading core committed, and the
// barrier latency is bounded by the queue capacity over the checker's
// worst-case throughput.
func TestDrainBarrier(t *testing.T) {
	s := newSystem(t, "swim", 36)
	s.Lead().SetFetchBudget(1 << 60)
	for i := 0; i < 20000; i++ {
		s.Step()
	}
	lat := s.Drain()
	if s.RVQOccupancy() != 0 {
		t.Fatal("Drain left entries in the RVQ")
	}
	if got, want := s.Checker().Stats().Checked, s.Lead().Stats().Instructions; got != want {
		t.Errorf("checked %d != committed %d after barrier", got, want)
	}
	// At peak frequency the checker clears ≥1 instruction per leading
	// cycle, so the barrier is bounded by the RVQ capacity.
	if lat > DefaultRVQSize {
		t.Errorf("barrier latency %d cycles exceeds the RVQ capacity bound", lat)
	}
}

// TestNoEmergencyRampAllowsStalls verifies the Discussion-paragraph
// aggressive heuristic: without the emergency ramp, a demanding workload
// stalls the leading core more.
func TestNoEmergencyRampAllowsStalls(t *testing.T) {
	run := func(emergency bool) SystemStats {
		s := newSystem(t, "mesa", 35)
		s.cfg.EmergencyRamp = emergency
		s.cfg.RVQLo, s.cfg.RVQHi = 150, 195
		return s.Run(60000)
	}
	with := run(true)
	without := run(false)
	if without.LeadStallCycles <= with.LeadStallCycles {
		t.Errorf("disabling the emergency ramp should increase stalls: %d vs %d",
			without.LeadStallCycles, with.LeadStallCycles)
	}
}

// TestDFSCapBindsOnlyWhenReached pins what the DFS cap does. Two
// systems that differ only in their cap run alike, cycle for cycle —
// checker frequency, RVQ occupancy, leading commits, checked
// instructions — until the higher-capped checker first runs above the
// lower cap, and neither ever runs above its own cap. It replaces "a
// lower cap never raises the mean checker frequency", which the
// controller does not promise (DESIGN.md, "DFS and its cap"): the
// rmt/mesa/2d-a window at Fast() ÷ 30 runs its checker faster on
// average under the 1.4 GHz cap than under 2.0. On mesa and gzip the
// 2.0 GHz checker passes 1.4 GHz within 6,000 instructions; on mcf it
// never does, so the two runs end identical.
func TestDFSCapBindsOnlyWhenReached(t *testing.T) {
	capped := func(bench string, capGHz float64) *System {
		s := newSystem(t, bench, 42)
		s.cfg.CheckerMaxFreqGHz = capGHz
		s.Lead().SetFetchBudget(^uint64(0))
		return s
	}
	for _, c := range []struct {
		bench string
		binds bool
	}{{"mesa", true}, {"gzip", true}, {"mcf", false}} {
		lo, hi := capped(c.bench, 1.4), capped(c.bench, 2.0)
		bound := 0
		for cycle := 1; lo.Lead().Committed() < 6000 || hi.Lead().Committed() < 6000; cycle++ {
			lo.Step()
			hi.Step()
			if lo.CheckerFreqGHz() > 1.4+1e-9 || hi.CheckerFreqGHz() > 2.0+1e-9 {
				t.Fatalf("%s cycle %d: checker at %.2f and %.2f GHz, above its cap", c.bench, cycle, lo.CheckerFreqGHz(), hi.CheckerFreqGHz())
			}
			if bound == 0 && hi.CheckerFreqGHz() > 1.4+1e-9 {
				bound = cycle
			}
			if bound == 0 && (lo.CheckerFreqGHz() != hi.CheckerFreqGHz() || lo.RVQOccupancy() != hi.RVQOccupancy() ||
				lo.Lead().Committed() != hi.Lead().Committed() || lo.Checker().Stats().Checked != hi.Checker().Stats().Checked) {
				t.Fatalf("%s cycle %d: the caps' runs differ before the 1.4 GHz cap binds", c.bench, cycle)
			}
		}
		if (bound > 0) != c.binds {
			t.Errorf("%s: 2.0 GHz checker first above 1.4 GHz at cycle %d, want binding %v", c.bench, bound, c.binds)
		}
		if !c.binds && (lo.Stats() != hi.Stats() || lo.Checker().Stats() != hi.Checker().Stats()) {
			t.Errorf("%s: the cap never bound, yet the runs differ", c.bench)
		}
	}
}
