package campaign

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
)

// Summary aggregates a campaign's outcomes.
type Summary struct {
	Trials  int `json:"trials"`
	OK      int `json:"ok"`
	Hung    int `json:"hung"`
	Crashed int `json:"crashed"`
	// Retried counts trials that needed more than one attempt.
	Retried int `json:"retried"`
	// Injection totals over every trial that produced statistics (ok
	// and hung; crashed trials have none).
	Instructions uint64 `json:"instructions"`
	LeadInjected uint64 `json:"lead_injected"`
	RFInjected   uint64 `json:"rf_injected"`
	MBUs         uint64 `json:"mbus"`
	Detected     uint64 `json:"detected"`
	Unrecovered  uint64 `json:"unrecovered"`
	// MeanCoverage averages per-trial coverage over ok trials with at
	// least one leading-side injection.
	MeanCoverage float64 `json:"mean_coverage"`
}

// ShadowDivergence is one failed shadow re-verification: a restored
// outcome whose from-scratch recomputation no longer matches it
// byte-for-byte. It is the campaign-level mirror of the paper's RMT
// checker flagging a leading-thread result it cannot reproduce.
type ShadowDivergence struct {
	ID         string `json:"id"`
	Stored     string `json:"stored"`
	Recomputed string `json:"recomputed"`
}

// Report is the deterministic aggregate of a campaign: trials sorted by
// ID — never by completion order — so a parallel, interrupted-and-
// resumed run encodes byte-identically to a serial fresh one. The
// shadow and interrupt fields encode as absent when clean, so a clean
// run's JSON is unchanged from builds that predate them.
type Report struct {
	Trials  []TrialOutcome `json:"trials"`
	Summary Summary        `json:"summary"`
	// Interrupted marks a gracefully drained run: the report covers only
	// the trials that finished, and the journal can resume it.
	Interrupted bool `json:"interrupted,omitempty"`
	// ShadowDivergences lists resumed outcomes (ID-sorted) that failed
	// re-verification.
	ShadowDivergences []ShadowDivergence `json:"shadow_divergences,omitempty"`
	// ShadowChecked counts shadow re-verifications actually executed.
	// Diagnostic only — excluded from the canonical encoding.
	ShadowChecked int `json:"-"`
	// Notes carries resume diagnostics for the caller to surface on
	// stderr; like ShadowChecked it never reaches the JSON.
	Notes []string `json:"-"`
}

// buildReport orders outcomes by trial ID and computes the summary in
// that order, keeping float accumulation order-stable.
func buildReport(outcomes []TrialOutcome) *Report {
	trials := make([]TrialOutcome, len(outcomes))
	copy(trials, outcomes)
	sort.Slice(trials, func(i, j int) bool { return trials[i].ID < trials[j].ID })

	var sum Summary
	sum.Trials = len(trials)
	covered := 0
	for _, t := range trials {
		switch t.Status {
		case StatusOK:
			sum.OK++
		case StatusHung:
			sum.Hung++
		case StatusCrashed:
			sum.Crashed++
		}
		if t.Attempts > 1 {
			sum.Retried++
		}
		if t.Result == nil {
			continue
		}
		sum.Instructions += t.Result.Instructions
		sum.LeadInjected += t.Result.LeadInjected
		sum.RFInjected += t.Result.RFInjected
		sum.MBUs += t.Result.MBUs
		sum.Detected += t.Result.Detected
		sum.Unrecovered += t.Result.Unrecovered
		if t.Status == StatusOK && t.Result.LeadInjected > 0 {
			sum.MeanCoverage += t.Result.Coverage()
			covered++
		}
	}
	if covered > 0 {
		sum.MeanCoverage /= float64(covered)
	}
	return &Report{Trials: trials, Summary: sum}
}

// JSON encodes the report with stable indentation; two runs over the
// same grid produce byte-identical output.
func (r *Report) JSON() ([]byte, error) {
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(enc, '\n'), nil
}

// Table renders a human-readable per-trial table plus the summary.
func (r *Report) Table() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 0, 4, 2, ' ', 0)
	// Writes through the tabwriter land in the strings.Builder and
	// cannot fail; discard the vacuous errors explicitly.
	row := func(format string, args ...any) { _, _ = fmt.Fprintf(w, format, args...) }
	row("trial\tstatus\tattempts\tinstr\tcycles\tinjected\tdetected\tcoverage\tnote\n")
	for _, t := range r.Trials {
		instr, cycles, injected, detected := "-", "-", "-", "-"
		coverage := "-"
		if t.Result != nil {
			instr = fmt.Sprintf("%d", t.Result.Instructions)
			cycles = fmt.Sprintf("%d", t.Result.Cycles)
			injected = fmt.Sprintf("%d", t.Result.LeadInjected+t.Result.RFInjected)
			detected = fmt.Sprintf("%d", t.Result.Detected)
			if t.Result.LeadInjected > 0 {
				coverage = fmt.Sprintf("%.2f", t.Result.Coverage())
			}
		}
		note := t.Reason
		if t.Status == StatusHung && t.HungAtCycle > 0 {
			note = fmt.Sprintf("%s @cycle %d", t.Reason, t.HungAtCycle)
		}
		row("%s\t%s\t%d\t%s\t%s\t%s\t%s\t%s\t%s\n",
			t.ID, t.Status, t.Attempts, instr, cycles, injected, detected, coverage, note)
	}
	//lint:ignore errdrop tabwriter flush into a strings.Builder cannot fail
	w.Flush()
	s := r.Summary
	fmt.Fprintf(&b, "\n%d trials: %d ok, %d hung, %d crashed (%d retried)\n",
		s.Trials, s.OK, s.Hung, s.Crashed, s.Retried)
	fmt.Fprintf(&b, "injected %d lead + %d RF (%d MBUs), detected %d, unrecovered %d, mean coverage %.2f\n",
		s.LeadInjected, s.RFInjected, s.MBUs, s.Detected, s.Unrecovered, s.MeanCoverage)
	if r.Interrupted {
		fmt.Fprintf(&b, "interrupted: drained gracefully; resume with -resume to finish the grid\n")
	}
	if r.ShadowChecked > 0 {
		fmt.Fprintf(&b, "shadow-verified %d resumed outcome(s), %d divergence(s)\n",
			r.ShadowChecked, len(r.ShadowDivergences))
	}
	for _, d := range r.ShadowDivergences {
		fmt.Fprintf(&b, "  SHADOW DIVERGENCE %s:\n    stored:     %s\n    recomputed: %s\n", d.ID, d.Stored, d.Recomputed)
	}
	return b.String()
}
