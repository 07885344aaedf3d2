package core

import (
	"testing"

	"r3d/internal/inorder"
	"r3d/internal/nuca"
	"r3d/internal/ooo"
	"r3d/internal/trace"
)

func newSystem(t *testing.T, bench string, seed int64) *System {
	t.Helper()
	b, err := trace.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	g := trace.MustGenerator(b.Profile, seed)
	lead, err := ooo.New(ooo.Default(), g, nuca.New(nuca.Config2DA(nuca.DistributedSets)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Default(ooo.Default()), lead)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	good := Default(ooo.Default())
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.RVQSize = 0 },
		func(c *Config) { c.LeadFreqGHz = 0 },
		func(c *Config) { c.RVQLo, c.RVQHi = 100, 50 },
		func(c *Config) { c.RVQHi = c.RVQSize + 1 },
		func(c *Config) { c.DFSIntervalCycles = 0 },
		func(c *Config) { c.Lead.ROBSize = 0 },
		func(c *Config) { c.Checker.Width = 0 },
	}
	for i, mutate := range cases {
		c := Default(ooo.Default())
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestCleanRunNoErrors(t *testing.T) {
	s := newSystem(t, "gzip", 1)
	st := s.Run(50000)
	if st.ErrorsDetected != 0 {
		t.Fatalf("clean run detected %d errors", st.ErrorsDetected)
	}
	if s.Lead().Stats().Instructions != 50000 {
		t.Fatalf("leading committed %d, want 50000", s.Lead().Stats().Instructions)
	}
	cs := s.Checker().Stats()
	if cs.Checked == 0 {
		t.Fatal("checker checked nothing")
	}
}

func TestCheckerLagsWithinSlack(t *testing.T) {
	s := newSystem(t, "vpr", 2)
	s.Run(60000)
	// The checker can lag by at most the RVQ capacity; everything else
	// must already be checked.
	lead := s.Lead().Stats().Instructions
	checked := s.Checker().Stats().Checked
	if checked > lead {
		t.Fatalf("checker checked %d > committed %d", checked, lead)
	}
	if lead-checked > DefaultRVQSize {
		t.Fatalf("slack %d exceeds RVQ size", lead-checked)
	}
}

func TestNegligibleLeadingSlowdown(t *testing.T) {
	// §2.1/§3.3: the checker rarely stalls the leading thread. Compare
	// the leading core's IPC with and without the RMT coupling.
	b, _ := trace.ByName("gzip")
	g1 := trace.MustGenerator(b.Profile, 3)
	alone, _ := ooo.New(ooo.Default(), g1, nuca.New(nuca.Config2DA(nuca.DistributedSets)))
	ipcAlone := alone.Run(80000).IPC()

	s := newSystem(t, "gzip", 3)
	s.Run(80000)
	ipcRMT := s.Lead().Stats().IPC()

	if ipcRMT < ipcAlone*0.98 {
		t.Errorf("RMT slows leading core: %.3f vs %.3f alone", ipcRMT, ipcAlone)
	}
}

func TestDFSSettlesBelowPeak(t *testing.T) {
	// The checker's high ILP lets it track the leading core at a
	// fraction of the peak frequency (§3.5: mean well below f).
	s := newSystem(t, "gzip", 4)
	s.Run(120000)
	mean := s.MeanCheckerFreqGHz()
	if mean >= 1.6 {
		t.Errorf("mean checker frequency %.2f GHz, want well below 2 GHz", mean)
	}
	if mean <= 0.2 {
		t.Errorf("mean checker frequency %.2f GHz suspiciously low", mean)
	}
	// Residency histogram total equals wall time.
	if got, want := s.FreqResidency().Total(), s.Stats().WallTimePs; got != want {
		t.Errorf("histogram mass %.0f != wall time %.0f", got, want)
	}
}

func TestHighIPCWorkloadNeedsHigherCheckerFreq(t *testing.T) {
	sLow := newSystem(t, "mcf", 5) // leading IPC ≈ 0.4
	sLow.Run(60000)
	sHigh := newSystem(t, "mesa", 5) // leading IPC ≈ 2.7
	sHigh.Run(60000)
	if sHigh.MeanCheckerFreqGHz() <= sLow.MeanCheckerFreqGHz() {
		t.Errorf("mesa checker freq %.2f should exceed mcf %.2f",
			sHigh.MeanCheckerFreqGHz(), sLow.MeanCheckerFreqGHz())
	}
}

func TestLeadResultCorruptionDetectedAndRecovered(t *testing.T) {
	s := newSystem(t, "gzip", 6)
	s.Run(5000)
	s.CorruptNextLeadResult(1 << 17)
	st := s.Run(30000)
	if st.ErrorsDetected == 0 {
		t.Fatal("injected leading-core error never detected")
	}
	if st.ErrorsRecovered == 0 {
		t.Fatal("error should have been recovered (clean trailer RF)")
	}
	if st.ErrorsUnrecovered != 0 {
		t.Fatalf("unexpected unrecoverable errors: %d", st.ErrorsUnrecovered)
	}
	if st.RecoveryStalls == 0 {
		t.Fatal("recovery must stall the leading core")
	}
}

func TestCheckerRFMultiBitUnrecoverable(t *testing.T) {
	s := newSystem(t, "vortex", 7)
	s.Run(5000)
	// Corrupt a trailer register beyond ECC, then trigger a detection on
	// that register when it is next read.
	s.CorruptCheckerRF(3, 3)
	s.Run(40000)
	st := s.Stats()
	if st.ErrorsDetected == 0 {
		t.Skip("register 3 never read in window (acceptable)")
	}
	if st.ErrorsUnrecovered == 0 {
		t.Fatal("multi-bit trailer RF corruption must count as unrecoverable")
	}
}

func TestDetectionLatencyBoundedBySlack(t *testing.T) {
	s := newSystem(t, "gzip", 8)
	s.Run(5000)
	s.CorruptNextLeadResult(0xf0)
	st := s.Run(20000)
	if st.ErrorsDetected == 0 {
		t.Fatal("no detection")
	}
	mean := float64(st.DetectionSlackSum) / float64(st.ErrorsDetected)
	if mean > float64(DefaultRVQSize) {
		t.Errorf("detection slack %.0f exceeds RVQ capacity", mean)
	}
}

func TestTrafficCounts(t *testing.T) {
	s := newSystem(t, "swim", 9)
	st := s.Run(40000)
	tr := st.Traffic
	if tr.RegisterValues == 0 || tr.LoadValues == 0 || tr.StoreValues == 0 || tr.BranchOutcomes == 0 {
		t.Fatalf("traffic missing components: %+v", tr)
	}
	// Register values cover every committed instruction that reached
	// the RVQ (possibly still in flight at the end).
	lead := s.Lead().Stats().Instructions
	if tr.RegisterValues != lead {
		t.Errorf("register values %d != committed %d", tr.RegisterValues, lead)
	}
	if tr.LoadValues >= tr.RegisterValues {
		t.Error("loads must be a strict subset of instructions")
	}
}

func TestCheckerCycleHookSeesPeriod(t *testing.T) {
	s := newSystem(t, "gzip", 10)
	var calls int
	var minP, maxP = 1e18, 0.0
	s.SetCheckerCycleHook(func(periodPs float64, c *inorder.Checker) {
		calls++
		if periodPs < minP {
			minP = periodPs
		}
		if periodPs > maxP {
			maxP = periodPs
		}
	})
	s.Run(40000)
	if calls == 0 {
		t.Fatal("hook never called")
	}
	if minP < 500-1e-9 {
		t.Errorf("checker period %.0f ps below the 2 GHz bound", minP)
	}
	if maxP <= minP {
		t.Errorf("DFS never changed the period: min %.0f max %.0f", minP, maxP)
	}
}

func TestHeterogeneousCapClampsFrequency(t *testing.T) {
	// §4: a 90 nm checker die is capped at 1.4 GHz.
	b, _ := trace.ByName("mesa") // demanding workload pushes the cap
	g := trace.MustGenerator(b.Profile, 11)
	lead, _ := ooo.New(ooo.Default(), g, nuca.New(nuca.Config2DA(nuca.DistributedSets)))
	cfg := Default(ooo.Default())
	cfg.CheckerMaxFreqGHz = 1.4
	s, err := New(cfg, lead)
	if err != nil {
		t.Fatal(err)
	}
	var over int
	s.SetCheckerCycleHook(func(periodPs float64, c *inorder.Checker) {
		if periodPs < 1000.0/1.4-1e-9 {
			over++
		}
	})
	s.Run(60000)
	if over > 0 {
		t.Fatalf("checker exceeded the 1.4 GHz cap %d times", over)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	a := newSystem(t, "twolf", 12)
	b := newSystem(t, "twolf", 12)
	sa, sb := a.Run(40000), b.Run(40000)
	if sa != sb {
		t.Fatalf("RMT run not deterministic:\n%+v\n%+v", sa, sb)
	}
}

func TestMeanRVQOccupancyWithinBounds(t *testing.T) {
	s := newSystem(t, "gap", 13)
	st := s.Run(60000)
	occ := st.MeanRVQOccupancy()
	if occ <= 0 || occ > float64(DefaultRVQSize) {
		t.Errorf("mean RVQ occupancy %.1f out of range", occ)
	}
}

func TestProgressAdvancesOnCleanRun(t *testing.T) {
	s := newSystem(t, "gzip", 9)
	if s.Progress() != 0 {
		t.Fatalf("fresh system reports progress %d", s.Progress())
	}
	last := uint64(0)
	for i := 0; i < 5; i++ {
		s.Run(uint64(10_000 * (i + 1)))
		p := s.Progress()
		if p <= last {
			t.Fatalf("progress did not advance: %d after %d", p, last)
		}
		last = p
	}
	want := s.Lead().Stats().Instructions + s.Checker().Stats().Checked
	if last != want {
		t.Errorf("progress %d != commits+checked %d", last, want)
	}
}

// TestSystemStepDoesNotAllocate: the queues and the checker's view are
// preallocated, so no cycle of a clean run allocates.
func TestSystemStepDoesNotAllocate(t *testing.T) {
	s := newSystem(t, "mcf", 4)
	s.Run(5000)
	s.Lead().SetFetchBudget(^uint64(0)) // keep the pipeline busy while measuring
	if n := testing.AllocsPerRun(2000, s.Step); n != 0 {
		t.Errorf("Step allocates %.2f times per cycle, want 0", n)
	}
}

func TestWedgeCheckerLivelocksLeadingThread(t *testing.T) {
	s := newSystem(t, "gzip", 10)
	s.Run(20_000)
	s.WedgeChecker()
	if !s.Wedged() {
		t.Fatal("Wedged() false after WedgeChecker")
	}
	// The leading thread runs on until the RVQ barrier fills, then all
	// forward progress must stop: the checker earns no cycles, nothing
	// drains, and the commit budget collapses to zero.
	s.lead.SetFetchBudget(^uint64(0))
	for i := 0; i < 2*DefaultRVQSize; i++ {
		s.Step()
	}
	wedgedAt := s.Progress()
	checked := s.Checker().Stats().Checked
	for i := 0; i < 50_000; i++ {
		s.Step()
	}
	if p := s.Progress(); p != wedgedAt {
		t.Errorf("wedged system still made progress: %d -> %d", wedgedAt, p)
	}
	if c := s.Checker().Stats().Checked; c != checked {
		t.Errorf("wedged checker still checked instructions: %d -> %d", checked, c)
	}
	if s.RVQOccupancy() != DefaultRVQSize {
		t.Errorf("RVQ not saturated under wedge: %d/%d", s.RVQOccupancy(), DefaultRVQSize)
	}
	// Drain must refuse to spin on a wedged system.
	if n := s.Drain(); n != 0 {
		t.Errorf("Drain on a wedged system should return immediately, spent %d cycles", n)
	}
}
