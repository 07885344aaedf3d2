package fault

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"r3d/internal/core"
	"r3d/internal/nuca"
	"r3d/internal/ooo"
	"r3d/internal/tech"
	"r3d/internal/trace"
)

func newSystem(t *testing.T, bench string, seed int64, maxGHz float64) *core.System {
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
	cfg := core.Default(ooo.Default())
	if maxGHz > 0 {
		cfg.CheckerMaxFreqGHz = maxGHz
	}
	s, err := core.New(cfg, lead)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCampaignValidate(t *testing.T) {
	// valid reference config each rejection case perturbs
	ok := CampaignConfig{Instructions: 1000, CycleBudget: DefaultCycleBudget(1000)}
	if err := ok.Validate(); err != nil {
		t.Fatalf("reference config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*CampaignConfig)
	}{
		{"zero instructions", func(c *CampaignConfig) { c.Instructions = 0 }},
		{"zero cycle budget", func(c *CampaignConfig) { c.CycleBudget = 0 }},
		{"negative lead rate", func(c *CampaignConfig) { c.LeadSoftPerMCycle = -1 }},
		{"negative checker rate", func(c *CampaignConfig) { c.CheckerSoftPerMCycle = -1 }},
		{"NaN lead rate", func(c *CampaignConfig) { c.LeadSoftPerMCycle = math.NaN() }},
		{"NaN checker rate", func(c *CampaignConfig) { c.CheckerSoftPerMCycle = math.NaN() }},
		{"timing without critical path", func(c *CampaignConfig) { c.EnableTiming = true }},
		{"timing with NaN critical path", func(c *CampaignConfig) { c.EnableTiming = true; c.CritPathPs = math.NaN() }},
		{"negative timing accel", func(c *CampaignConfig) { c.EnableTiming = true; c.CritPathPs = 495; c.TimingAccel = -0.5 }},
		{"NaN timing accel", func(c *CampaignConfig) { c.EnableTiming = true; c.CritPathPs = 495; c.TimingAccel = math.NaN() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ok
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		})
	}
	if _, err := RunCampaign(newSystem(t, "gzip", 1, 0), CampaignConfig{}); err == nil {
		t.Error("RunCampaign must reject invalid config")
	}
}

func TestCycleBudgetTerminatesWedgedSystem(t *testing.T) {
	// A deliberately-wedged system (checker-die livelock at cycle 1000)
	// must not spin the legacy serial path forever: the hard cycle
	// budget stops it with a distinguishable error and partial stats.
	sys := newSystem(t, "gzip", 8, 0)
	res, err := RunCampaign(sys, CampaignConfig{
		Instructions:        1_000_000,
		CycleBudget:         20_000,
		LivelockAfterCycles: 1000,
		Seed:                3,
	})
	if !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("want ErrCycleBudget, got %v", err)
	}
	if res.Cycles != 20_000 {
		t.Errorf("budget-exhausted run reports %d cycles, want 20000", res.Cycles)
	}
	if res.Instructions >= 1_000_000 {
		t.Errorf("wedged system claims to have finished (%d instructions)", res.Instructions)
	}
	if !sys.Wedged() {
		t.Error("livelock injection never armed")
	}
}

func TestDefaultCycleBudgetSaturates(t *testing.T) {
	if b := DefaultCycleBudget(^uint64(0)); b != ^uint64(0) {
		t.Errorf("overflowing budget must saturate, got %d", b)
	}
	if b := DefaultCycleBudget(1000); b <= 400_000 {
		t.Errorf("budget %d too tight for 1000 instructions", b)
	}
}

func TestZeroRateInjectorsNeverFire(t *testing.T) {
	sys := newSystem(t, "gzip", 9, 0)
	soft, err := NewSoftErrorInjector(tech.Node65, 0, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	timing := NewTimingInjector(tech.Node65, 495, 0, 5) // zero acceleration
	sys.SetCheckerCycleHook(timing.Hook)
	sys.Lead().SetFetchBudget(50_000)
	for sys.Lead().Stats().Instructions < 50_000 && !sys.Lead().Drained() {
		soft.Tick(sys)
		sys.Step()
	}
	if soft.LeadInjected != 0 || soft.RFInjected != 0 || soft.MBUs != 0 {
		t.Errorf("zero-rate soft injector fired: lead %d rf %d mbus %d",
			soft.LeadInjected, soft.RFInjected, soft.MBUs)
	}
	if timing.Injected != 0 {
		t.Errorf("zero-accel timing injector fired %d times", timing.Injected)
	}
	st := sys.Stats()
	if st.ErrorsDetected != 0 {
		t.Errorf("clean run detected %d errors", st.ErrorsDetected)
	}
}

// TestSoftErrorMBUDrawsByteIdentical reruns the injector over the same
// system and seed and requires the full injection trace — arrival
// cycles and upset widths — to serialize to identical bytes.
func TestSoftErrorMBUDrawsByteIdentical(t *testing.T) {
	record := func(seed int64) []byte {
		sys := newSystem(t, "vortex", 10, 0)
		soft, err := NewSoftErrorInjector(tech.Node45, 30, 300, seed)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		var cycle uint64
		sys.Lead().SetFetchBudget(60_000)
		for sys.Lead().Stats().Instructions < 60_000 && !sys.Lead().Drained() {
			before := [3]uint64{soft.LeadInjected, soft.RFInjected, soft.MBUs}
			soft.Tick(sys)
			sys.Step()
			cycle++
			if after := [3]uint64{soft.LeadInjected, soft.RFInjected, soft.MBUs}; after != before {
				for _, v := range []uint64{cycle, after[0], after[1], after[2]} {
					if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if soft.MBUs == 0 {
			t.Fatal("45 nm run drew no MBUs; trace proves nothing")
		}
		return buf.Bytes()
	}
	if a, b := record(77), record(77); !bytes.Equal(a, b) {
		t.Error("same seed produced different injection traces")
	}
	if a, c := record(77), record(78); bytes.Equal(a, c) {
		t.Error("different seeds produced identical traces (suspicious)")
	}
}

// TestTimingInjectorClampsOverUnityProbability drives the accelerated
// probability far beyond 1 and checks the injector clamps to one error
// per stage per cycle instead of over-injecting.
func TestTimingInjectorClampsOverUnityProbability(t *testing.T) {
	inj := NewTimingInjector(tech.Node65, 500, 1e12, 21)
	c := newSystem(t, "gzip", 11, 0).Checker()
	inj.Hook(500, c) // p·accel >> 1 at zero slack
	if got, want := inj.Injected, uint64(inj.Stages); got != want {
		t.Errorf("clamped hook injected %d errors, want exactly one per stage (%d)", got, want)
	}
	inj.Hook(500, c)
	if got, want := inj.Injected, uint64(2*inj.Stages); got != want {
		t.Errorf("second clamped hook: %d total injections, want %d", got, want)
	}
}

func TestLeadingSoftErrorsAllDetectedAndRecovered(t *testing.T) {
	sys := newSystem(t, "gzip", 2, 0)
	res, err := RunCampaign(sys, CampaignConfig{
		Instructions:      120000,
		CycleBudget:       DefaultCycleBudget(120000),
		LeadSoftPerMCycle: 150, // aggressive acceleration
		Seed:              7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LeadInjected < 3 {
		t.Fatalf("too few injections to judge: %d", res.LeadInjected)
	}
	if res.Detected < res.LeadInjected {
		t.Errorf("detected %d < injected %d: the checking process must catch every leading-core error",
			res.Detected, res.LeadInjected)
	}
	if res.Unrecovered != 0 {
		t.Errorf("leading-core errors must be recoverable (clean trailer RF), got %d unrecovered", res.Unrecovered)
	}
	if res.Coverage() < 1 {
		t.Errorf("coverage %.2f < 1", res.Coverage())
	}
	if res.MeanDetectSlack <= 0 || res.MeanDetectSlack > core.DefaultRVQSize {
		t.Errorf("implausible detection slack %.1f", res.MeanDetectSlack)
	}
}

func TestCheckerMBUsCanBeUnrecoverable(t *testing.T) {
	// At 45 nm critical charges the MBU fraction is substantial; some
	// checker-side upsets must land beyond ECC and, when subsequently
	// read during a detection, count as unrecoverable.
	sys := newSystem(t, "vortex", 3, 0)
	soft, err := NewSoftErrorInjector(tech.Node45, 40, 400, 11)
	if err != nil {
		t.Fatal(err)
	}
	sys.Lead().SetFetchBudget(150000)
	for sys.Lead().Stats().Instructions < 150000 && !sys.Lead().Drained() {
		soft.Tick(sys)
		sys.Step()
	}
	if soft.MBUs == 0 {
		t.Fatal("45 nm campaign produced no MBUs")
	}
	st := sys.Stats()
	if st.ErrorsDetected == 0 {
		t.Fatal("RF corruptions never surfaced")
	}
	if st.ErrorsUnrecovered == 0 {
		t.Error("expected some unrecoverable errors from multi-bit RF upsets")
	}
}

func TestOlderNodeHasFewerMBUs(t *testing.T) {
	run := func(node tech.Node) uint64 {
		sys := newSystem(t, "gzip", 4, 0)
		soft, err := NewSoftErrorInjector(node, 0, 600, 13)
		if err != nil {
			t.Fatal(err)
		}
		sys.Lead().SetFetchBudget(80000)
		for sys.Lead().Stats().Instructions < 80000 && !sys.Lead().Drained() {
			soft.Tick(sys)
			sys.Step()
		}
		return soft.MBUs
	}
	if m90, m45 := run(tech.Node90), run(tech.Node45); m90 >= m45 {
		t.Errorf("90 nm MBUs (%d) should be below 45 nm (%d)", m90, m45)
	}
}

func TestTimingInjectorSlackSuppression(t *testing.T) {
	// §3.5: at 0.6·f each stage has huge slack and the timing error
	// probability collapses versus full-frequency operation.
	inj := NewTimingInjector(tech.Node65, 500, 1, 1)
	atPeak := inj.ExpectedStageErrorProb(500)
	atSixty := inj.ExpectedStageErrorProb(833)
	if atSixty >= atPeak/1000 {
		t.Errorf("0.6f stage error prob %.3g should be orders below peak %.3g", atSixty, atPeak)
	}
}

func TestTimingInjectorOlderProcessMoreRobust(t *testing.T) {
	// §4: the 90 nm die suffers less variability, so at equal *relative*
	// slack its stage error probability is lower.
	new65 := NewTimingInjector(tech.Node45, 500, 1, 1)
	old90 := NewTimingInjector(tech.Node90, 500, 1, 1)
	p65 := new65.ExpectedStageErrorProb(550)
	p90 := old90.ExpectedStageErrorProb(550)
	if p90 >= p65 {
		t.Errorf("older process should be more robust: %g vs %g", p90, p65)
	}
}

func TestTimingCampaignInjectsAtTightSlack(t *testing.T) {
	// Cap the checker at full frequency demand (mesa) so it often runs
	// near its critical path, then check the injector fires and errors
	// are detected.
	sys := newSystem(t, "mesa", 5, 0)
	res, err := RunCampaign(sys, CampaignConfig{
		Instructions: 100000,
		CycleBudget:  DefaultCycleBudget(100000),
		EnableTiming: true,
		TimingNode:   tech.Node65,
		CritPathPs:   495, // nearly the full 500 ps period
		TimingAccel:  0.02,
		Seed:         17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimingInjected == 0 {
		t.Fatal("timing injector never fired despite near-critical operation")
	}
	if res.Detected == 0 {
		t.Error("timing corruptions never detected")
	}
}

func TestDeterministicCampaign(t *testing.T) {
	run := func() CampaignResult {
		sys := newSystem(t, "twolf", 6, 0)
		res, err := RunCampaign(sys, CampaignConfig{
			Instructions:         60000,
			CycleBudget:          DefaultCycleBudget(60000),
			LeadSoftPerMCycle:    80,
			CheckerSoftPerMCycle: 80,
			Seed:                 23,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); a != b {
		t.Errorf("campaign not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestCampaignAdvanceMatchesSteps: RunCampaign, which runs each quiet
// stretch of the leading core in one call (Campaign.Advance), ends as a
// loop of Step ends: the same result, system, checker and leading-core
// statistics, frequency residency and budget error, with soft errors
// injected into the leading core and the trailer register file at rates
// that put injections inside stretches, the per-checker-cycle timing
// hook, and a livelock wedge that runs into the cycle budget.
func TestCampaignAdvanceMatchesSteps(t *testing.T) {
	for _, c := range []struct {
		name, bench string
		maxGHz      float64
		cfg         CampaignConfig
	}{
		{"gzip/soft", "gzip", 0, CampaignConfig{LeadSoftPerMCycle: 500, CheckerSoftPerMCycle: 2000}},
		{"mcf/soft", "mcf", 0, CampaignConfig{LeadSoftPerMCycle: 300, CheckerSoftPerMCycle: 3000}},
		{"mcf/timing", "mcf", 1.4, CampaignConfig{EnableTiming: true, TimingNode: tech.Node90, CritPathPs: 700, TimingAccel: 0.05, LeadSoftPerMCycle: 200}},
		{"art/livelock", "art", 0, CampaignConfig{LeadSoftPerMCycle: 300, LivelockAfterCycles: 7_777, CycleBudget: 40_001}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Instructions, cfg.Seed = 20_000, 5
			if cfg.CycleBudget == 0 {
				cfg.CycleBudget = DefaultCycleBudget(cfg.Instructions)
			}
			fast, ref := newSystem(t, c.bench, 3, c.maxGHz), newSystem(t, c.bench, 3, c.maxGHz)
			got, gotErr := RunCampaign(fast, cfg)
			camp, err := NewCampaign(ref, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for !camp.Done() && !camp.BudgetExhausted() {
				camp.Step()
			}
			if want := camp.Result(); got != want {
				t.Fatalf("result\n%+v\nStep by Step\n%+v", got, want)
			}
			if errors.Is(gotErr, ErrCycleBudget) != camp.BudgetExhausted() {
				t.Errorf("budget error %v, Step by Step exhausted %v", gotErr, camp.BudgetExhausted())
			}
			if fast.Stats() != ref.Stats() || fast.Checker().Stats() != ref.Checker().Stats() || fast.Lead().Stats() != ref.Lead().Stats() {
				t.Errorf("statistics differ:\n%+v\n%+v", fast.Stats(), ref.Stats())
			}
			if !slices.Equal(fast.FreqResidency().Counts, ref.FreqResidency().Counts) {
				t.Errorf("residency %v, Step by Step %v", fast.FreqResidency().Counts, ref.FreqResidency().Counts)
			}
			if got.LeadInjected+got.RFInjected+got.TimingInjected == 0 {
				t.Error("nothing was injected")
			}
		})
	}
}
