package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"r3d/internal/fault"
	"r3d/internal/tech"
)

var update = flag.Bool("update", false, "regenerate the testdata goldens instead of comparing against them")

const trialsGolden = "testdata/trials.golden"

// goldenSpecs is the pinned fault-injection grid: gzip and mcf on the
// 2d-a and 3d-2a L2s, each under four fault cases, plus one trial that
// wedges the checker so the watchdog reports it hung. The cases reach
// the coupler paths windows.golden never runs: recovery stalls after
// leading soft errors, unrecoverable multi-bit upsets in the checker's
// register file, and the per-checker-cycle timing hook at tight slack
// under the §4 1.4 GHz cap.
func goldenSpecs() []TrialSpec {
	const n = 20_000
	cases := []struct {
		name   string
		maxGHz float64
		cfg    fault.CampaignConfig
	}{
		{name: "clean"},
		{name: "lead", cfg: fault.CampaignConfig{LeadSoftPerMCycle: 300}},
		{name: "rf", cfg: fault.CampaignConfig{CheckerSoftPerMCycle: 2000}},
		{name: "timing", maxGHz: 1.4, cfg: fault.CampaignConfig{
			EnableTiming: true, TimingNode: tech.Node90, CritPathPs: 700, TimingAccel: 0.05,
		}},
	}
	var specs []TrialSpec
	for _, bench := range []string{"gzip", "mcf"} {
		for _, l2 := range []string{"2d-a", "3d-2a"} {
			for i, c := range cases {
				cfg := c.cfg
				cfg.Instructions = n
				cfg.CycleBudget = fault.DefaultCycleBudget(n)
				cfg.Seed = int64(11 + i)
				specs = append(specs, TrialSpec{
					ID:            fmt.Sprintf("%s/%s/%s", bench, l2, c.name),
					Bench:         bench,
					L2:            l2,
					CheckerMaxGHz: c.maxGHz,
					Config:        cfg,
				})
			}
		}
	}
	wedge := specs[0]
	wedge.ID = "gzip/2d-a/livelock"
	wedge.Config.LivelockAfterCycles = 3000
	return append(specs, wedge)
}

// TestTrialsGolden pins what a supervised fault-injection trial
// computes: one line per trial with the SHA-256 of the JSON of its
// outcome, the system, leading-core and checker statistics, and the
// checker's frequency residency. An intended model change regenerates
// the file with
//
//	go test ./internal/campaign -run TestTrialsGolden -update
//
// and the diff shows which trials moved.
func TestTrialsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, spec := range goldenSpecs() {
		sys, err := BuildSystem(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		out := RunSupervised(sys, spec.Config, fastWatchdog)
		out.ID = spec.ID
		if wantHung := spec.Config.LivelockAfterCycles > 0; (out.Status == StatusHung) != wantHung {
			t.Errorf("%s: status %s (%s)", spec.ID, out.Status, out.Reason)
		}
		enc, err := json.Marshal(struct {
			Outcome   TrialOutcome
			System    any
			Lead      any
			Checker   any
			Residency []float64
		}{out, sys.Stats(), sys.Lead().Stats(), sys.Checker().Stats(), sys.FreqResidency().Counts})
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		fmt.Fprintf(&got, "%s %x\n", spec.ID, sha256.Sum256(enc))
	}
	if *update {
		if err := os.WriteFile(trialsGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(trialsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	for _, l := range gotLines {
		if !slices.Contains(wantLines, l) {
			t.Errorf("trial digest changed or added: %s", l)
		}
	}
	for _, l := range wantLines {
		if !slices.Contains(gotLines, l) {
			t.Errorf("golden line no longer produced: %s", l)
		}
	}
	t.Log("run with -update if the model change is intended")
}
