package core

import (
	"slices"
	"testing"

	"r3d/internal/inorder"
	"r3d/internal/isa"
	"r3d/internal/nuca"
	"r3d/internal/ooo"
	"r3d/internal/trace"
)

// stretchConfigs are the coupler configurations the stretch tests run:
// the paper's, the §4 1.4 GHz cap, no emergency ramp, a 16-entry RVQ
// with its thresholds at 30%/60% as the RVQ sweep scales them, and a
// 7-cycle DFS interval, which puts interval ends inside most stretches.
var stretchConfigs = []struct {
	name   string
	mutate func(*Config)
}{
	{"default", func(*Config) {}},
	{"cap1.4", func(c *Config) { c.CheckerMaxFreqGHz = 1.4 }},
	{"noramp", func(c *Config) { c.EmergencyRamp = false }},
	{"rvq16", func(c *Config) { c.RVQSize, c.RVQLo, c.RVQHi = 16, 16*3/10, 16*6/10 }},
	{"dfs7", func(c *Config) { c.DFSIntervalCycles = 7 }},
}

// newStretchSystem builds a system over lead, or, when lead is nil,
// over a leading core on b's stream that has run 5,000 instructions
// alone, so that its caches are warm and the coupled run commits at the
// profile's pace.
func newStretchSystem(t *testing.T, b trace.Benchmark, mutate func(*Config), lead *ooo.Core) *System {
	t.Helper()
	if lead == nil {
		var err error
		lead, err = ooo.New(ooo.Default(), trace.MustGenerator(b.Profile, 21), nuca.New(nuca.Config2DA(nuca.DistributedSets)))
		if err != nil {
			t.Fatal(err)
		}
		lead.Run(5_000)
		lead.SetFetchBudget(^uint64(0))
	}
	cfg := Default(ooo.Default())
	mutate(&cfg)
	s, err := New(cfg, lead)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// countingHook returns a checker hook that upsets one trailer register
// every 97th checker cycle it sees, a single bit or (every other time)
// three: a hook whose effect depends on which checker cycles run.
func countingHook() CheckerCycleHook {
	n := 0
	return func(periodPs float64, c *inorder.Checker) {
		if n++; n%97 == 0 {
			c.CorruptRF(isa.Reg(n%isa.NumRegs), 1+n/97%2*2)
		}
	}
}

// stretchEvent is something the stretch tests do to both systems at a
// cycle; a stretch never crosses one.
type stretchEvent struct {
	cycle uint64
	do    func(*System)
}

// stretchScript corrupts a leading result and two trailer registers (one
// beyond ECC), installs and removes a hook, resets the statistics,
// drains the RVQ and finally wedges the checker.
var stretchScript = []stretchEvent{
	{1_500, func(s *System) { s.CorruptNextLeadResult(1 << 5) }},
	{3_000, func(s *System) { s.CorruptCheckerRF(7, 1); s.CorruptCheckerRF(11, 3) }},
	{4_000, func(s *System) { s.SetCheckerCycleHook(countingHook()) }},
	{6_000, func(s *System) { s.ResetStats() }},
	{7_000, func(s *System) { s.SetCheckerCycleHook(nil) }},
	{8_000, func(s *System) { s.Drain() }},
	{9_000, func(s *System) { s.CorruptNextLeadResult(0xff00) }},
	{11_000, func(s *System) { s.WedgeChecker() }},
	{13_000, nil},
}

// sameSystems fails t unless a and b agree, at the given cycle, on
// everything the stretch tests compare.
func sameSystems(t *testing.T, cycle uint64, a, b *System) {
	t.Helper()
	switch {
	case a.Stats() != b.Stats():
		t.Fatalf("cycle %d: stats\n%+v\n%+v", cycle, a.Stats(), b.Stats())
	case a.Checker().Stats() != b.Checker().Stats():
		t.Fatalf("cycle %d: checker stats\n%+v\n%+v", cycle, a.Checker().Stats(), b.Checker().Stats())
	case !slices.Equal(a.FreqResidency().Counts, b.FreqResidency().Counts):
		t.Fatalf("cycle %d: residency %v, %v", cycle, a.FreqResidency().Counts, b.FreqResidency().Counts)
	case a.CheckerFreqGHz() != b.CheckerFreqGHz():
		t.Fatalf("cycle %d: checker at %v GHz, %v GHz", cycle, a.CheckerFreqGHz(), b.CheckerFreqGHz())
	case a.RVQOccupancy() != b.RVQOccupancy():
		t.Fatalf("cycle %d: RVQ holds %d, %d", cycle, a.RVQOccupancy(), b.RVQOccupancy())
	case a.Lead().Stats() != b.Lead().Stats():
		t.Fatalf("cycle %d: leading stats\n%+v\n%+v", cycle, a.Lead().Stats(), b.Lead().Stats())
	}
}

// TestAdvanceMatchesSteps: a system that runs every quiet stretch of its
// leading core in one call (Advance: the core skips it, then StepQuiet)
// and a twin stepped cycle by cycle with Step agree after every call, on
// every profile and coupler configuration, through stretchScript.
func TestAdvanceMatchesSteps(t *testing.T) {
	for _, b := range trace.Suite() {
		for _, c := range stretchConfigs {
			t.Run(b.Profile.Name+"/"+c.name, func(t *testing.T) {
				fast := newStretchSystem(t, b, c.mutate, nil)
				ref := newStretchSystem(t, b, c.mutate, nil)
				var cycle uint64
				stretches := 0
				for _, ev := range stretchScript {
					for cycle < ev.cycle {
						n := fast.Advance(ev.cycle - cycle)
						for range n {
							ref.Step()
						}
						if n > 1 {
							stretches++
						}
						cycle += n
						sameSystems(t, cycle, fast, ref)
					}
					if ev.do != nil {
						ev.do(fast)
						ev.do(ref)
						sameSystems(t, cycle, fast, ref)
					}
				}
				if stretches == 0 {
					t.Error("no quiet stretch ran in one call")
				}
			})
		}
	}
}

// TestStepQuietOnSharedCore: two systems on one shared leading core, as
// a group drives them: the core steps at the budget the systems give
// it, and both take its commits with StepOn. Over a quiet stretch the
// core skips it in one call, then one system runs it with StepQuiet and
// the other with StepOn(nil) cycle by cycle. They agree after every
// call, on every profile and coupler configuration, through
// stretchScript (whose Drain steps the shared core once per system).
func TestStepQuietOnSharedCore(t *testing.T) {
	for _, b := range trace.Suite() {
		for _, c := range stretchConfigs {
			t.Run(b.Profile.Name+"/"+c.name, func(t *testing.T) {
				fast := newStretchSystem(t, b, c.mutate, nil)
				lead := fast.Lead()
				ref := newStretchSystem(t, b, c.mutate, lead)
				var cycle uint64
				for _, ev := range stretchScript {
					for cycle < ev.cycle {
						if k := min(lead.Quiet(), ev.cycle-cycle); k > 0 {
							lead.Skip(k)
							fast.StepQuiet(k)
							for range k {
								ref.StepOn(nil)
							}
							cycle += k
						} else {
							if fast.Budget() != ref.Budget() {
								t.Fatalf("cycle %d: budgets %d and %d", cycle, fast.Budget(), ref.Budget())
							}
							committed := lead.Step(ref.Budget())
							fast.StepOn(committed)
							ref.StepOn(committed)
							cycle++
						}
						sameSystems(t, cycle, fast, ref)
					}
					if ev.do != nil {
						ev.do(fast)
						ev.do(ref)
						sameSystems(t, cycle, fast, ref)
					}
				}
			})
		}
	}
}

// TestLittlesLawOnRVQ: from an empty RVQ to an empty RVQ, the occupancy
// the coupler sums once per leading cycle equals the time every entry
// spent in the queue. Stepping cycle by cycle, the leading core's
// committed count says which entries each cycle pushed and the checker's
// issued count which ones it checked; an entry pushed in cycle p and
// checked in cycle c is in the queue at the start of cycles p+1 … c.
// A twin that runs the same stream through quiet stretches in one call
// must sum the same occupancy.
func TestLittlesLawOnRVQ(t *testing.T) {
	for _, c := range []struct {
		bench  string
		mutate func(*Config)
	}{
		{"gzip", func(*Config) {}},
		{"mcf", func(*Config) {}},
		{"gzip", stretchConfigs[3].mutate},
		{"mesa", stretchConfigs[3].mutate},
	} {
		b, err := trace.ByName(c.bench)
		if err != nil {
			t.Fatal(err)
		}
		const n = 20_000
		s := newStretchSystem(t, b, c.mutate, nil)
		warm := s.Lead().Committed() // the lead's solo run, fetched to its budget
		s.Lead().SetFetchBudget(warm + n)
		pushed := make([]uint64, 0, n)
		var residence uint64
		var checked, cycle uint64
		for !s.Lead().Drained() || s.RVQOccupancy() > 0 {
			s.Step()
			cycle++
			for range s.Lead().Committed() - warm - uint64(len(pushed)) {
				pushed = append(pushed, cycle)
			}
			for ; checked < s.Checker().Stats().Issued; checked++ {
				residence += cycle - pushed[checked]
			}
		}
		if len(pushed) != n || checked != n {
			t.Fatalf("%s RVQ %d: pushed %d and checked %d of %d", c.bench, s.cfg.RVQSize, len(pushed), checked, n)
		}
		if got := s.Stats().RVQOccupancySum; got != residence {
			t.Errorf("%s RVQ %d: occupancy sum %d, entries' residence %d", c.bench, s.cfg.RVQSize, got, residence)
		}

		twin := newStretchSystem(t, b, c.mutate, nil)
		twin.Run(warm + n)
		for twin.RVQOccupancy() > 0 {
			// A drained core is quiet for ever: bound the stretch.
			twin.Advance(64)
		}
		if got := twin.Stats().RVQOccupancySum; got != residence {
			t.Errorf("%s RVQ %d: through quiet stretches the occupancy sum is %d, entries' residence %d", c.bench, twin.cfg.RVQSize, got, residence)
		}
	}
}
