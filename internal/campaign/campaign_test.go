package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"r3d/internal/core"
	"r3d/internal/fault"
	"r3d/internal/tech"
)

// testGrid is the acceptance-style grid: 8 regular trials (2 benches ×
// 2 seeds × 2 lead rates) over small windows.
func testGrid() Grid {
	return Grid{
		Benches:      []string{"gzip", "mesa"},
		Seeds:        []int64{1, 2},
		LeadRates:    []float64{40, 120},
		RFRates:      []float64{50},
		Instructions: 25_000,
		Node:         tech.Node65,
	}
}

// testSpecs returns the grid trials plus one deliberately-wedged
// (checker-die livelock) self-test trial — 9 total.
func testSpecs(t *testing.T) []TrialSpec {
	t.Helper()
	g := testGrid()
	specs, err := g.Trials()
	if err != nil {
		t.Fatal(err)
	}
	wedged, err := g.SelfTestTrial(2000)
	if err != nil {
		t.Fatal(err)
	}
	return append(specs, wedged)
}

// fastWatchdog keeps hung-trial detection cheap in tests.
var fastWatchdog = Watchdog{NoProgressCycles: 8_000, CheckEveryCycles: 256}

func findTrial(t *testing.T, rep *Report, id string) TrialOutcome {
	t.Helper()
	for _, tr := range rep.Trials {
		if tr.ID == id {
			return tr
		}
	}
	t.Fatalf("trial %q missing from report", id)
	return TrialOutcome{}
}

func TestGridExpansion(t *testing.T) {
	specs, err := testGrid().Trials()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 8 {
		t.Fatalf("2×2×2×1 grid expanded to %d trials, want 8", len(specs))
	}
	seen := map[string]bool{}
	for _, sp := range specs {
		if seen[sp.ID] {
			t.Errorf("duplicate trial ID %q", sp.ID)
		}
		seen[sp.ID] = true
		if err := sp.Config.Validate(); err != nil {
			t.Errorf("trial %s: invalid config: %v", sp.ID, err)
		}
		if sp.Config.CycleBudget == 0 {
			t.Errorf("trial %s: no cycle budget defaulted", sp.ID)
		}
	}
	if !seen["gzip/s1/l40/r50"] {
		t.Errorf("expected coordinate-derived ID missing; have %v", specs[0].ID)
	}
	if _, err := (Grid{}).Trials(); err == nil {
		t.Error("empty grid accepted")
	}
}

// TestCampaignAcceptance is the headline scenario: a parallel campaign
// over ≥8 trials including an injected livelock completes, reports the
// wedged trial hung (not a harness crash or spin), and aggregates
// deterministically — workers=1 and workers=4 produce byte-identical
// JSON.
func TestCampaignAcceptance(t *testing.T) {
	specs := testSpecs(t)
	run := func(workers int) (*Report, []byte) {
		rep, err := Run(Config{Workers: workers, Watchdog: fastWatchdog}, specs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		enc, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return rep, enc
	}
	_, serial := run(1)
	rep, parallel := run(4)
	if !bytes.Equal(serial, parallel) {
		t.Error("parallel aggregation differs from serial")
	}

	if rep.Summary.Trials != 9 || rep.Summary.OK != 8 || rep.Summary.Hung != 1 || rep.Summary.Crashed != 0 {
		t.Fatalf("unexpected summary: %+v", rep.Summary)
	}
	wedged := findTrial(t, rep, "selftest/livelock")
	if wedged.Status != StatusHung || wedged.Reason != ReasonNoProgress {
		t.Errorf("wedged trial reported %s/%s, want hung/no-progress", wedged.Status, wedged.Reason)
	}
	if wedged.HungAtCycle == 0 || wedged.Result == nil {
		t.Fatalf("hung outcome missing watchdog cycle or partial stats: %+v", wedged)
	}
	if wedged.Result.Instructions >= specs[8].Config.Instructions {
		t.Errorf("wedged trial claims completion: %d instructions", wedged.Result.Instructions)
	}
	if !strings.Contains(rep.Table(), "selftest/livelock") {
		t.Error("table rendering lost the self-test trial")
	}
}

// TestResumeFromPartialJournalByteIdentical interrupts a campaign by
// truncating its journal mid-line — the footprint of a killed process —
// then resumes and requires the aggregate JSON to match an
// uninterrupted run exactly, without re-running journaled trials.
func TestResumeFromPartialJournalByteIdentical(t *testing.T) {
	specs := testSpecs(t)
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")

	full, err := Run(Config{Workers: 2, Watchdog: fastWatchdog}, specs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.JSON()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Run(Config{Workers: 1, Watchdog: fastWatchdog, JournalPath: journal}, specs); err != nil {
		t.Fatal(err)
	}
	chopJournal(t, journal, 4)

	resumed, err := Run(Config{Workers: 3, Watchdog: fastWatchdog, JournalPath: journal, Resume: true}, specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("resumed aggregate differs from uninterrupted run:\n%s\n--- vs ---\n%s", got, want)
	}

	// A second resume over the now-complete journal must run 0 trials.
	var builds atomic.Int64
	counting := func(spec TrialSpec) (*core.System, error) {
		builds.Add(1)
		return BuildSystem(spec)
	}
	again, err := Run(Config{Workers: 2, Watchdog: fastWatchdog, JournalPath: journal, Resume: true, Builder: counting}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 0 {
		t.Errorf("complete journal still rebuilt %d systems", builds.Load())
	}
	enc, err := again.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, enc) {
		t.Error("journal-only aggregate differs from live run")
	}
}

// chopJournal truncates the journal to its header plus the first n
// outcome lines, then appends a torn partial line.
func chopJournal(t *testing.T, path string, n int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < n+2 {
		t.Fatalf("journal too short to chop: %d lines", len(lines))
	}
	kept := strings.Join(lines[:n+1], "")
	kept += `{"id":"torn-` // interrupted mid-marshal
	if err := os.WriteFile(path, []byte(kept), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestResumeRejectsForeignJournal(t *testing.T) {
	specs := testSpecs(t)
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	if _, err := Run(Config{Workers: 2, Watchdog: fastWatchdog, JournalPath: journal}, specs[:4]); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Watchdog: fastWatchdog, JournalPath: journal, Resume: true}, specs); err == nil {
		t.Error("resume accepted a journal written for a different grid")
	}
	if err := os.WriteFile(journal, []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Watchdog: fastWatchdog, JournalPath: journal, Resume: true}, specs); err == nil {
		t.Error("resume accepted a non-journal file")
	}
}

func TestPanicIsolation(t *testing.T) {
	specs := testSpecs(t)[:4]
	specs = append(specs, TrialSpec{ID: "selftest/panic", Bench: "gzip", Config: specs[0].Config})
	builder := func(spec TrialSpec) (*core.System, error) {
		if spec.ID == "selftest/panic" {
			panic("injected harness fault")
		}
		return BuildSystem(spec)
	}
	rep, err := Run(Config{Workers: 3, Watchdog: fastWatchdog, Builder: builder}, specs)
	if err != nil {
		t.Fatalf("a crashing trial must not fail the campaign: %v", err)
	}
	if rep.Summary.Crashed != 1 || rep.Summary.OK != 4 {
		t.Fatalf("unexpected summary: %+v", rep.Summary)
	}
	crashed := findTrial(t, rep, "selftest/panic")
	if crashed.Status != StatusCrashed || !strings.Contains(crashed.Reason, "injected harness fault") {
		t.Errorf("crashed outcome: %+v", crashed)
	}
	if crashed.Result != nil {
		t.Error("crashed trial carries statistics")
	}
}

func TestBuilderErrorIsCrashedOutcome(t *testing.T) {
	specs, err := testGrid().Trials()
	if err != nil {
		t.Fatal(err)
	}
	specs[0].Bench = "no-such-workload"
	rep, err := Run(Config{Workers: 2, Watchdog: fastWatchdog}, specs[:2])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Crashed != 1 || rep.Summary.OK != 1 {
		t.Fatalf("unexpected summary: %+v", rep.Summary)
	}
}

func TestHungTrialRetriesAreBoundedAndSeedPerturbed(t *testing.T) {
	wedged, err := testGrid().SelfTestTrial(1500)
	if err != nil {
		t.Fatal(err)
	}
	var seeds []int64
	builder := func(spec TrialSpec) (*core.System, error) {
		seeds = append(seeds, spec.Config.Seed)
		return BuildSystem(spec)
	}
	rep, err := Run(Config{Workers: 1, MaxRetries: 2, Watchdog: fastWatchdog, Builder: builder}, []TrialSpec{wedged})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Trials[0]
	if out.Status != StatusHung {
		t.Fatalf("livelocked trial ended %s", out.Status)
	}
	if out.Attempts != 3 {
		t.Errorf("attempts %d, want 1 + 2 retries", out.Attempts)
	}
	if len(seeds) != 3 || seeds[0] == seeds[1] || seeds[1] == seeds[2] {
		t.Errorf("retries must perturb the seed deterministically, got %v", seeds)
	}
	if rep.Summary.Retried != 1 {
		t.Errorf("summary retried %d, want 1", rep.Summary.Retried)
	}
}

func TestDuplicateTrialIDsRejected(t *testing.T) {
	specs := testSpecs(t)[:2]
	specs[1].ID = specs[0].ID
	if _, err := Run(Config{}, specs); err == nil {
		t.Error("duplicate IDs accepted")
	}
	if _, err := Run(Config{}, []TrialSpec{{Bench: "gzip"}}); err == nil {
		t.Error("empty ID accepted")
	}
}

// TestWallClockStallGuard exercises the opt-in host-clock watchdog with
// a builder that blocks well past the timeout: the campaign abandons
// the trial and reports it hung with the wall-clock reason.
func TestWallClockStallGuard(t *testing.T) {
	specs := testSpecs(t)[:3]
	stalledID := specs[0].ID
	release := make(chan struct{})
	builder := func(spec TrialSpec) (*core.System, error) {
		if spec.ID == stalledID {
			<-release // simulates a harness bug the cycle watchdog cannot see
		}
		return BuildSystem(spec)
	}
	rep, err := Run(Config{Workers: 2, Watchdog: fastWatchdog, StallTimeout: 500 * time.Millisecond, Builder: builder}, specs)
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Hung != 1 || rep.Summary.OK != 2 {
		t.Fatalf("unexpected summary: %+v", rep.Summary)
	}
	stalled := findTrial(t, rep, stalledID)
	if stalled.Status != StatusHung || stalled.Reason != ReasonWallClock {
		t.Errorf("stalled trial outcome: %+v", stalled)
	}
}

func TestRunSupervisedReportsCompletedCampaign(t *testing.T) {
	spec := testSpecs(t)[0]
	sys, err := BuildSystem(spec)
	if err != nil {
		t.Fatal(err)
	}
	out := RunSupervised(sys, spec.Config, fastWatchdog)
	if out.Status != StatusOK || out.Result == nil {
		t.Fatalf("supervised clean trial: %+v", out)
	}
	if out.Result.Instructions != spec.Config.Instructions {
		t.Errorf("ran %d instructions, want %d", out.Result.Instructions, spec.Config.Instructions)
	}
	// Same spec through the serial fault path must agree exactly.
	sys2, err := BuildSystem(spec)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := fault.RunCampaign(sys2, spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	if *out.Result != serial {
		t.Errorf("supervised result diverges from serial path:\n%+v\n%+v", *out.Result, serial)
	}
}

// TestOnOutcomeObservesEveryFreshTrial: the progress callback fires once
// per executed trial with the committed outcome, and journal-restored
// trials are not replayed through it on resume.
func TestOnOutcomeObservesEveryFreshTrial(t *testing.T) {
	specs := testSpecs(t)
	journal := filepath.Join(t.TempDir(), "run.jsonl")

	var calls atomic.Int64
	seen := make(chan string, len(specs))
	rep, err := Run(Config{
		Workers:     2,
		MaxRetries:  1,
		JournalPath: journal,
		Watchdog:    fastWatchdog,
		OnOutcome: func(out TrialOutcome) {
			calls.Add(1)
			seen <- out.ID
		},
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(specs)) {
		t.Fatalf("OnOutcome fired %d times, want %d", got, len(specs))
	}
	close(seen)
	ids := map[string]bool{}
	for id := range seen {
		if ids[id] {
			t.Errorf("OnOutcome saw trial %q twice", id)
		}
		ids[id] = true
	}
	for _, tr := range rep.Trials {
		if !ids[tr.ID] {
			t.Errorf("OnOutcome never saw trial %q", tr.ID)
		}
	}

	// Resume: everything comes from the journal, nothing re-executes.
	rep2, err := Run(Config{
		Workers:     2,
		MaxRetries:  1,
		JournalPath: journal,
		Resume:      true,
		Watchdog:    fastWatchdog,
		OnOutcome:   func(TrialOutcome) { calls.Add(1) },
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(specs)) {
		t.Errorf("OnOutcome fired %d more times on a full resume, want 0", got-int64(len(specs)))
	}
	a, _ := rep.JSON()
	b, _ := rep2.JSON()
	if !bytes.Equal(a, b) {
		t.Error("resumed report not byte-identical to fresh run")
	}
}

// superviseByStep is RunSupervised's watchdog loop stepping one cycle
// at a time, the reference for the stretches RunSupervised runs.
func superviseByStep(t *testing.T, sys *core.System, cfg fault.CampaignConfig, wd Watchdog) TrialOutcome {
	t.Helper()
	camp, err := fault.NewCampaign(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hung := func(reason string) TrialOutcome {
		res := camp.Result()
		return TrialOutcome{Status: StatusHung, Reason: reason, HungAtCycle: camp.Cycles(), Result: &res}
	}
	lastProgress, lastAdvance := sys.Progress(), uint64(0)
	for !camp.Done() {
		if camp.BudgetExhausted() {
			return hung(ReasonCycleBudget)
		}
		camp.Step()
		if camp.Cycles()%wd.CheckEveryCycles != 0 {
			continue
		}
		if p := sys.Progress(); p > lastProgress {
			lastProgress, lastAdvance = p, camp.Cycles()
		} else if camp.Cycles()-lastAdvance >= wd.NoProgressCycles {
			return hung(ReasonNoProgress)
		}
	}
	res := camp.Result()
	return TrialOutcome{Status: StatusOK, Result: &res}
}

// TestSupervisedStretchesMatchSteps: RunSupervised, which runs quiet
// stretches of the leading core in one call, ends every trial as the
// watchdog loop stepping cycle by cycle does, at a probe interval that
// divides no stretch evenly: the same status, reason, hung cycle and
// result for soft errors in the leading core and the trailer register
// file, the timing hook, a wedge the no-progress deadline catches and
// one the cycle budget stops.
func TestSupervisedStretchesMatchSteps(t *testing.T) {
	wd := Watchdog{NoProgressCycles: 6_000, CheckEveryCycles: 333}
	base := fault.CampaignConfig{Instructions: 15_000, CycleBudget: fault.DefaultCycleBudget(15_000), Seed: 9}
	cases := []struct {
		bench string
		edit  func(*fault.CampaignConfig)
	}{
		{"mcf", func(c *fault.CampaignConfig) { c.LeadSoftPerMCycle, c.CheckerSoftPerMCycle = 400, 3000 }},
		{"gzip", func(c *fault.CampaignConfig) { c.LeadSoftPerMCycle, c.CheckerSoftPerMCycle = 600, 1000 }},
		{"mcf", func(c *fault.CampaignConfig) {
			c.EnableTiming, c.TimingNode, c.CritPathPs, c.TimingAccel = true, tech.Node90, 700, 0.05
		}},
		{"art", func(c *fault.CampaignConfig) { c.LivelockAfterCycles = 4_321 }},
		{"mcf", func(c *fault.CampaignConfig) { c.LivelockAfterCycles, c.CycleBudget = 2_000, 5_555 }},
	}
	for i, c := range cases {
		cfg := base
		c.edit(&cfg)
		spec := TrialSpec{ID: "t", Bench: c.bench, Config: cfg}
		fast, err := BuildSystem(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := BuildSystem(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, want := RunSupervised(fast, cfg, wd), superviseByStep(t, ref, cfg, wd)
		if got.Status != want.Status || got.Reason != want.Reason || got.HungAtCycle != want.HungAtCycle ||
			got.Result == nil || want.Result == nil || *got.Result != *want.Result {
			t.Errorf("case %d (%s): supervised %+v %+v, Step by Step %+v %+v", i, c.bench, got, got.Result, want, want.Result)
		}
		if fast.Stats() != ref.Stats() || fast.Checker().Stats() != ref.Checker().Stats() {
			t.Errorf("case %d (%s): system statistics differ", i, c.bench)
		}
	}
}
