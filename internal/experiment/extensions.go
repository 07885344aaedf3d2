package experiment

import (
	"fmt"
	"strings"

	"r3d/internal/dtm"
	"r3d/internal/floorplan"
	"r3d/internal/inorder"
	"r3d/internal/noc"
	"r3d/internal/nuca"
	"r3d/internal/ooo"
	"r3d/internal/power"
	"r3d/internal/thermal"
	"r3d/internal/trace"
)

// --- Hard-error degraded mode (§2, footnote 1) -------------------------------

// DegradedRow compares one benchmark across the healthy out-of-order
// core and the checker running the workload alone after a hard error.
type DegradedRow struct {
	Bench       string
	OoOIPC      float64
	InOrderIPC  float64
	SlowdownPct float64
}

// DegradedModeResult is the hard-error study.
type DegradedModeResult struct {
	Rows            []DegradedRow
	MeanSlowdownPct float64
}

// DegradedModeManifest declares the healthy-baseline windows; the
// in-order standalone runs are one-shot and not engine-cached.
func DegradedModeManifest(q Quality) []RunKey {
	return suiteLeadKeys(q, L2DA, nuca.DistributedSets, 0)
}

// DegradedMode quantifies footnote 1: after a hard error in the leading
// core, the full-fledged checker core executes the leading thread by
// itself — in order, without RVP's perfect operands, with a real branch
// predictor and data cache.
func DegradedMode(s *Session) (DegradedModeResult, error) {
	var res DegradedModeResult
	suite := s.Q.Suite()
	for _, b := range suite {
		name := b.Profile.Name
		healthy, err := s.Leading(name, L2DA, nuca.DistributedSets, 0)
		if err != nil {
			return res, err
		}
		g := trace.MustGenerator(b.Profile, s.Q.Seed)
		sa, err := inorder.NewStandalone(inorder.Default(), g, nuca.New(nuca.Config2DA(nuca.DistributedSets)), ooo.Default().MemLatencyCycles)
		if err != nil {
			return res, err
		}
		sa.Run(s.Q.WarmupInsts)
		before := sa.Stats()
		after := sa.Run(s.Q.WarmupInsts + s.Q.MeasureInsts)
		ipc := float64(after.Instructions-before.Instructions) / float64(after.Cycles-before.Cycles)
		row := DegradedRow{
			Bench:       name,
			OoOIPC:      healthy.IPC(),
			InOrderIPC:  ipc,
			SlowdownPct: (1 - ipc/healthy.IPC()) * 100,
		}
		res.Rows = append(res.Rows, row)
		res.MeanSlowdownPct += row.SlowdownPct / float64(len(suite))
	}
	return res, nil
}

// String renders the degraded-mode table.
func (r DegradedModeResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hard-error degraded mode (checker as leading core, §2 fn.1)\n")
	fmt.Fprintf(&b, "  %-9s %8s %10s %10s\n", "bench", "OoO IPC", "in-order", "slowdown")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s %8.2f %10.2f %9.1f%%\n", row.Bench, row.OoOIPC, row.InOrderIPC, row.SlowdownPct)
	}
	fmt.Fprintf(&b, "  mean slowdown %.1f%% — the \"performance penalty\" of tolerating a hard error\n", r.MeanSlowdownPct)
	return b.String()
}

// --- DTM study (§3.2's alternative to better cooling) ------------------------

// DTMStudyResult compares the 2d-a baseline and the 3d-2a reliable chip
// under an 85 °C throttling policy.
type DTMStudyResult struct {
	Policy          dtm.Policy
	Loss2DAPct      float64
	Loss3DPct       float64
	Peak2DAC        thermal.Celsius
	Peak3DC         thermal.Celsius
	Interventions3D uint64
}

// dtmGridRes is the transient model's grid resolution (coarser than the
// steady-state 50×50: explicit time stepping over hundreds of
// milliseconds at full resolution is needlessly slow for a
// throttling-policy study).
const dtmGridRes = 16

// DTMStudyManifest declares the suite-activity windows behind the
// transient power maps.
func DTMStudyManifest(q Quality) []RunKey {
	return activityKeys(q, L2DA)
}

// DTMStudy runs both chips for the given simulated time under the
// default DTM policy using suite-average power maps.
func DTMStudy(s *Session, horizonMs float64) (DTMStudyResult, error) {
	res := DTMStudyResult{Policy: dtm.DefaultPolicy()}
	act, rate6, err := s.SuiteActivity(L2DA)
	if err != nil {
		return res, err
	}
	rate15 := rate6 * 6 / 15

	run := func(model ChipModel, checkerW float64) (dtm.Stats, error) {
		fp := buildPlan(model, floorplan.DefaultOptions())
		die1 := power.LeadingCorePower(act, 1, 1)
		bank := power.L2BankPower(rate6, 1) + noc.RouterPowerW
		die2 := power.BlockPowers{}
		switch model {
		case M2DA:
			for i := 0; i < 6; i++ {
				die1[fmt.Sprintf("L2Bank%d", i)] = bank
			}
		case M3D2A:
			for i := 0; i < 6; i++ {
				die1[fmt.Sprintf("L2Bank%d", i)] = power.L2BankPower(rate15, 1) + noc.RouterPowerW
			}
			for i := 0; i < 9; i++ {
				die2[fmt.Sprintf("TopBank%d", i)] = power.L2BankPower(rate15, 1) + noc.RouterPowerW
			}
			die2["Checker"] = checkerW
		}
		// The transient stack is shared through the session's model
		// cache, so both DTM runs (and any repeat) skip the conductance
		// precompute; each controller still owns a private state.
		ctl, err := dtm.NewFromModel(s.thermalModel(fp, dtmGridRes), res.Policy)
		if err != nil {
			return dtm.Stats{}, err
		}
		grids := [][][]float64{fp.PowerGrid(floorplan.LayerDie1, die1, dtmGridRes, dtmGridRes)}
		if model == M3D2A {
			grids = append(grids, fp.PowerGrid(floorplan.LayerDie2, die2, dtmGridRes, dtmGridRes))
		}
		if err := ctl.RunPhase(dtm.Phase{DurationMs: horizonMs, Grids: grids}); err != nil {
			return dtm.Stats{}, err
		}
		return ctl.Stats(), nil
	}

	st2, err := run(M2DA, 0)
	if err != nil {
		return res, err
	}
	st3, err := run(M3D2A, power.CheckerPessimisticW)
	if err != nil {
		return res, err
	}
	res.Loss2DAPct = st2.PerfLossPct(res.Policy.MaxGHz)
	res.Loss3DPct = st3.PerfLossPct(res.Policy.MaxGHz)
	res.Peak2DAC = st2.PeakC
	res.Peak3DC = st3.PeakC
	res.Interventions3D = st3.Interventions
	return res, nil
}

// String renders the DTM study.
func (r DTMStudyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DTM study (§3.2: throttling instead of better cooling, %.0f °C trigger)\n", r.Policy.TriggerC)
	fmt.Fprintf(&b, "  2d-a:  peak %.1f °C, throttling loss %.1f%%\n", r.Peak2DAC, r.Loss2DAPct)
	fmt.Fprintf(&b, "  3d-2a (15 W checker): peak %.1f °C, throttling loss %.1f%% (%d interventions)\n",
		r.Peak3DC, r.Loss3DPct, r.Interventions3D)
	fmt.Fprintf(&b, "  the dynamic mechanism lands near the §3.3 static DVFS answer\n")
	return b.String()
}

// --- RVQ sizing ablation ------------------------------------------------------

// QueueSizingRow is one slack/queue configuration.
type QueueSizingRow struct {
	RVQSize       int
	SlowdownPct   float64
	MeanFreqGHz   float64
	MeanOccupancy float64
}

// QueueSizingResult sweeps the RVQ capacity around the paper's 200-entry
// design point.
type QueueSizingResult struct {
	Rows []QueueSizingRow
}

// rvqSweepSizes are the swept capacities around the paper's 200-entry
// design point.
var rvqSweepSizes = []int{25, 50, 100, 200, 400}

// QueueSizingManifest declares the sweep's windows: baselines plus one
// window per (size, bench).
func QueueSizingManifest(q Quality) []RunKey {
	keys := suiteLeadKeys(q, L2DA, nuca.DistributedSets, 0)
	for _, size := range rvqSweepSizes {
		for _, b := range q.Suite() {
			keys = append(keys, RVQSizeKey(q, b.Profile.Name, size))
		}
	}
	return keys
}

// QueueSizing evaluates the paper's queue-sizing choice (§2.1: "to
// accommodate a slack of 200 instructions, we implement a 200-entry
// RVQ"): smaller queues force tighter coupling and stall the leading
// core; larger ones buy nothing.
func QueueSizing(s *Session) (QueueSizingResult, error) {
	var res QueueSizingResult
	suite := s.Q.Suite()
	n := float64(len(suite))
	for _, size := range rvqSweepSizes {
		row := QueueSizingRow{RVQSize: size}
		var ipcBase float64
		for _, b := range suite {
			base, err := s.Leading(b.Profile.Name, L2DA, nuca.DistributedSets, 0)
			if err != nil {
				return res, err
			}
			ipcBase += base.IPC() / n
			r, err := s.rmtQueueSize(b.Profile.Name, size)
			if err != nil {
				return res, err
			}
			row.MeanFreqGHz += r.MeanFreqGHz / n
			row.MeanOccupancy += r.Sys.MeanRVQOccupancy() / n
			row.SlowdownPct += r.Lead.IPC() / n // accumulate IPC, convert below
		}
		row.SlowdownPct = (1 - row.SlowdownPct/ipcBase) * 100
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// rmtQueueSize returns the memoized RMT window for an RVQ capacity.
func (s *Session) rmtQueueSize(bench string, size int) (RMTRun, error) {
	r, err := s.eng.Get(RVQSizeKey(s.Q, bench, size))
	return r.rmt, err
}

// String renders the queue-sizing sweep.
func (r QueueSizingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "RVQ sizing ablation (§2.1 design point: 200 entries)\n")
	fmt.Fprintf(&b, "  %-8s %10s %10s %10s\n", "entries", "slowdown", "mean GHz", "mean occ")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-8d %9.2f%% %10.2f %10.0f\n", row.RVQSize, row.SlowdownPct, row.MeanFreqGHz, row.MeanOccupancy)
	}
	return b.String()
}
