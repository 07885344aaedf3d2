package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runBaseline computes the uninterrupted aggregate the recovery tests
// compare against.
func runBaseline(t *testing.T, specs []TrialSpec) []byte {
	t.Helper()
	rep, err := Run(Config{Workers: 2, Watchdog: fastWatchdog}, specs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	enc, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestChecksumMismatchMidJournalReRunsSuffix(t *testing.T) {
	specs := testSpecs(t)
	dir := t.TempDir()
	journal := filepath.Join(dir, "campaign.jsonl")
	want := runBaseline(t, specs)

	if _, err := Run(Config{Workers: 1, Watchdog: fastWatchdog, JournalPath: journal}, specs); err != nil {
		t.Fatal(err)
	}

	// Flip payload bytes inside a mid-journal record without updating
	// its CRC: the checksum must catch it, discard it and the records
	// after it, and re-run those trials.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 6 {
		t.Fatalf("journal too short: %d lines", len(lines))
	}
	if !strings.Contains(lines[3], `"LeadInjected"`) {
		t.Fatalf("journal record has unexpected shape: %s", lines[3])
	}
	lines[3] = strings.Replace(lines[3], `"LeadInjected"`, `"LeadImjected"`, 1)
	if err := os.WriteFile(journal, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Run(Config{Workers: 2, Watchdog: fastWatchdog, JournalPath: journal, Resume: true}, specs)
	if err != nil {
		t.Fatalf("a checksum-failing record must be recovered from, not fatal: %v", err)
	}
	if got := reportJSON(t, rep); !bytes.Equal(want, got) {
		t.Errorf("aggregate after mid-journal corruption differs:\n%s\n--- vs ---\n%s", got, want)
	}
	found := false
	for _, note := range rep.Notes {
		if strings.Contains(note, "checksum-failing record") {
			found = true
		}
	}
	if !found {
		t.Errorf("corruption recovery must be reported in notes: %q", rep.Notes)
	}
}

// TestGracefulDrainThenRestoreIsByteIdentical drains a journaled
// campaign at once, then restores it by resuming from the journal.
func TestGracefulDrainThenRestoreIsByteIdentical(t *testing.T) {
	specs := testSpecs(t)
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	want := runBaseline(t, specs)

	stop := make(chan struct{})
	close(stop) // drain immediately: at most the in-flight trials finish
	cfg := Config{Workers: 1, Watchdog: fastWatchdog, JournalPath: journal, Stop: stop}
	partial, err := Run(cfg, specs)
	if err != nil {
		t.Fatalf("graceful drain is not an error: %v", err)
	}
	if !partial.Interrupted {
		t.Error("drained run must report Interrupted")
	}
	if len(partial.Trials) >= len(specs) {
		t.Fatalf("drain finished all %d trials; nothing left to test resume with", len(specs))
	}

	cfg.Stop = nil
	cfg.Resume = true
	resumed, err := Run(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Interrupted {
		t.Error("completed resume must not report Interrupted")
	}
	if got := reportJSON(t, resumed); !bytes.Equal(want, got) {
		t.Errorf("drain+resume aggregate differs from uninterrupted run:\n%s\n--- vs ---\n%s", got, want)
	}
}

func TestShadowVerificationDetectsTamperedOutcome(t *testing.T) {
	specs := testSpecs(t)
	dir := t.TempDir()
	journal := filepath.Join(dir, "campaign.jsonl")

	if _, err := Run(Config{Workers: 2, Watchdog: fastWatchdog, JournalPath: journal}, specs); err != nil {
		t.Fatal(err)
	}

	// Tamper with one journaled outcome and re-seal its CRC: the
	// checksum passes (the file is self-consistent), so only a shadow
	// re-execution can expose that the stored result is wrong.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	type record struct {
		CRC  string          `json:"crc"`
		Data json.RawMessage `json:"data"`
	}
	var tamperedID string
	for i := 1; i < len(lines) && tamperedID == ""; i++ {
		var rec record
		if err := json.Unmarshal([]byte(lines[i]), &rec); err != nil {
			t.Fatal(err)
		}
		var out TrialOutcome
		if err := json.Unmarshal(rec.Data, &out); err != nil {
			t.Fatal(err)
		}
		if out.Status != StatusOK || out.Result == nil {
			continue
		}
		out.Result.Detected += 7 // a silently-wrong stored statistic
		payload, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := json.Marshal(record{CRC: fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload)), Data: payload})
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(enc) + "\n"
		tamperedID = out.ID
	}
	if tamperedID == "" {
		t.Fatal("no ok trial found to tamper with")
	}
	if err := os.WriteFile(journal, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Run(Config{Workers: 2, Watchdog: fastWatchdog, JournalPath: journal, Resume: true, ShadowFraction: 1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShadowChecked == 0 {
		t.Fatal("ShadowFraction=1 ran no shadow checks")
	}
	if len(rep.ShadowDivergences) != 1 {
		t.Fatalf("divergences = %d, want exactly the tampered trial: %+v", len(rep.ShadowDivergences), rep.ShadowDivergences)
	}
	d := rep.ShadowDivergences[0]
	if d.ID != tamperedID {
		t.Errorf("divergence on %q, want %q", d.ID, tamperedID)
	}
	if !strings.Contains(d.Stored, `"Detected"`) || d.Stored == d.Recomputed {
		t.Errorf("divergence must carry differing canonical encodings:\nstored:     %s\nrecomputed: %s", d.Stored, d.Recomputed)
	}
	// Detection, not repair: the stored value still feeds the aggregate.
	if findTrial(t, rep, tamperedID).Result.Detected == 0 {
		t.Error("tampered outcome vanished from the aggregate")
	}
}

func TestShadowVerificationCleanRestoreHasNoDivergences(t *testing.T) {
	specs := testSpecs(t)
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	if _, err := Run(Config{Workers: 2, Watchdog: fastWatchdog, JournalPath: journal}, specs); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{Workers: 2, Watchdog: fastWatchdog, JournalPath: journal, Resume: true, ShadowFraction: 1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	// Every non-wall-clock trial is checked; a deterministic simulator
	// reproduces each outcome exactly.
	if rep.ShadowChecked == 0 {
		t.Error("ShadowFraction=1 ran no shadow checks")
	}
	if len(rep.ShadowDivergences) != 0 {
		t.Errorf("clean restore diverged: %+v", rep.ShadowDivergences)
	}
	// A clean report's JSON must not mention shadow state at all (field
	// compatibility with pre-checkpoint builds).
	enc := reportJSON(t, rep)
	if bytes.Contains(enc, []byte("shadow")) || bytes.Contains(enc, []byte("interrupted")) {
		t.Errorf("clean report JSON leaks shadow/interrupt fields:\n%s", enc)
	}
}
