package experiment

import (
	"fmt"
	"strings"

	"r3d/internal/nuca"
	"r3d/internal/power"
)

// DFSVariant is one throttling-heuristic configuration for the ablation
// of the paper's Discussion paragraph (§4): an aggressive heuristic
// slows the checker further — lowering its power and temperature — but
// can stall the main core; the paper deliberately chose the less
// aggressive one.
type DFSVariant struct {
	Name string
	// Lo/Hi are the RVQ occupancy thresholds; Interval the evaluation
	// period in leading cycles.
	Lo, Hi   int
	Interval int
	// Emergency keeps the queue-full single-cycle ramp; the aggressive
	// variant disables it and accepts main-core stalls.
	Emergency bool
}

// DFSVariants returns the ablation points: the paper's default, a more
// aggressive heuristic (slow the checker until the queue is nearly
// full), and a conservative one (keep the queue nearly empty).
func DFSVariants() []DFSVariant {
	return []DFSVariant{
		{Name: "conservative", Lo: 20, Hi: 60, Interval: 100, Emergency: true},
		{Name: "default", Lo: 60, Hi: 120, Interval: 100, Emergency: true},
		{Name: "aggressive", Lo: 150, Hi: 195, Interval: 400, Emergency: false},
	}
}

// DFSAblationRow is one variant's outcome.
type DFSAblationRow struct {
	Variant       string
	MeanFreqGHz   float64
	CheckerPowerW float64 // 15 W-class checker at the measured DFS point
	LeadIPC       float64
	SlowdownPct   float64 // vs the standalone leading core
	LeadStallFrac float64 // fraction of cycles commit-stalled on queues
	MeanOccupancy float64
}

// DFSAblationResult is the heuristic ablation.
type DFSAblationResult struct {
	Rows []DFSAblationRow
}

// DFSAblation evaluates the DFS heuristic variants over the session's
// suite.
func DFSAblation(s *Session) (DFSAblationResult, error) {
	suite := s.Q.Suite()
	n := float64(len(suite))
	model := power.NewCheckerModel(power.CheckerPessimisticW)

	var res DFSAblationResult
	for _, v := range DFSVariants() {
		row := DFSAblationRow{Variant: v.Name}
		var ipcBase float64
		for _, b := range suite {
			base, err := s.Leading(b.Profile.Name, L2DA, nuca.DistributedSets, 0)
			if err != nil {
				return res, err
			}
			ipcBase += base.IPC() / n

			r, err := s.rmtVariant(b.Profile.Name, v)
			if err != nil {
				return res, err
			}
			row.MeanFreqGHz += r.MeanFreqGHz / n
			row.LeadIPC += r.Lead.IPC() / n
			row.CheckerPowerW += model.Power(r.MeanFreqGHz/2.0, r.CheckerUtil) / n
			if r.Lead.Activity.Cycles > 0 {
				row.LeadStallFrac += float64(r.Sys.LeadStallCycles) / float64(r.Lead.Activity.Cycles) / n
			}
			row.MeanOccupancy += r.Sys.MeanRVQOccupancy() / n
		}
		row.SlowdownPct = (1 - row.LeadIPC/ipcBase) * 100
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// DFSAblationManifest declares the ablation's windows: the per-bench
// baselines plus one variant window per (variant, bench).
func DFSAblationManifest(q Quality) []RunKey {
	keys := suiteLeadKeys(q, L2DA, nuca.DistributedSets, 0)
	for _, v := range DFSVariants() {
		for _, b := range q.Suite() {
			keys = append(keys, DFSVariantKey(q, b.Profile.Name, v.Name))
		}
	}
	return keys
}

// rmtVariant returns the memoized RMT window for a DFS variant.
func (s *Session) rmtVariant(bench string, v DFSVariant) (RMTRun, error) {
	r, err := s.eng.Get(DFSVariantKey(s.Q, bench, v.Name))
	return r.rmt, err
}

// String renders the ablation table.
func (r DFSAblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DFS heuristic ablation (§4 Discussion)\n")
	fmt.Fprintf(&b, "  %-13s %9s %10s %9s %10s %9s\n", "variant", "mean GHz", "checker W", "lead IPC", "slowdown", "mean RVQ")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-13s %9.2f %10.1f %9.2f %9.2f%% %9.0f\n",
			row.Variant, row.MeanFreqGHz, row.CheckerPowerW, row.LeadIPC, row.SlowdownPct, row.MeanOccupancy)
	}
	b.WriteString("  (aggressive throttling cuts checker power but risks stalling the\n")
	b.WriteString("   main core — the paper picks the heuristic that never does)\n")
	return b.String()
}
