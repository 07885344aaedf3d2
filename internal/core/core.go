// Package core implements the paper's reliable processor: a redundantly
// multi-threaded (RMT) pair of an out-of-order leading core and an
// in-order trailing checker core, coupled through first-in-first-out
// value queues (§2):
//
//	RVQ — 200-entry register value queue (results + RVP operands)
//	LVQ — 80-entry load value queue (ECC protected)
//	BOQ — 40-entry branch outcome queue
//	StB — 40-entry store buffer (stores drain to memory after checking)
//
// The leading core runs at full frequency and commits instructions into
// the queues; the trailing core consumes them at a dynamically scaled
// frequency (DFS in steps of 0.1·f, as in [19]): when RVQ occupancy
// falls below a low threshold the checker slows down, when it rises
// above a high threshold the checker speeds up. Because the checker has
// perfect caching, branch outcomes and register value prediction, it
// sustains near-width ILP and typically keeps up at a fraction of the
// leading frequency — the conservative timing margin of §3.5.
//
// Error handling follows the paper's fault model: any mismatch between
// the transmitted leading-core values and the trailer's own computation
// is detected; recovery uses the trailer's ECC-protected register file
// and fails only if that file holds a multi-bit corruption.
package core

import (
	"fmt"

	"r3d/internal/inorder"
	"r3d/internal/isa"
	"r3d/internal/ooo"
	"r3d/internal/stats"
)

// Queue sizes and DFS parameters from §2.1 of the paper.
const (
	DefaultRVQSize = 200
	DefaultLVQSize = 80
	DefaultBOQSize = 40
	DefaultStBSize = 40
)

// Config describes the RMT system.
type Config struct {
	Lead    ooo.Config
	Checker inorder.Config

	RVQSize int
	LVQSize int
	BOQSize int
	StBSize int

	// LeadFreqGHz is the leading core's clock (Table 1: 2 GHz).
	LeadFreqGHz float64
	// CheckerMaxFreqGHz caps the checker's DFS range; 2.0 for a
	// homogeneous 65 nm stack, 1.4 for the §4 90 nm checker die whose
	// stages take 714 ps instead of 500 ps.
	CheckerMaxFreqGHz float64
	// FreqStepGHz is the DFS granularity (0.1 of the leading frequency).
	FreqStepGHz float64
	// DFSIntervalCycles is the number of leading cycles between DFS
	// occupancy evaluations.
	DFSIntervalCycles int
	// RVQLo/RVQHi are the occupancy thresholds that trigger frequency
	// steps down/up.
	RVQLo, RVQHi int

	// RecoveryPenaltyCycles stalls the leading core after a detected
	// error while state is restored from the trailer register file and
	// the pipeline refills.
	RecoveryPenaltyCycles int

	// EmergencyRamp enables the single-cycle frequency ramp when the
	// RVQ is about to stall the leading core. The paper's chosen
	// heuristic "doesn't degrade the main core's performance by itself";
	// disabling this reproduces its Discussion-paragraph aggressive
	// variant, which saves checker power but stalls the main core.
	EmergencyRamp bool
}

// Default returns the paper's RMT configuration over the given leading
// core config.
func Default(lead ooo.Config) Config {
	return Config{
		Lead:                  lead,
		Checker:               inorder.Default(),
		RVQSize:               DefaultRVQSize,
		LVQSize:               DefaultLVQSize,
		BOQSize:               DefaultBOQSize,
		StBSize:               DefaultStBSize,
		LeadFreqGHz:           2.0,
		CheckerMaxFreqGHz:     2.0,
		FreqStepGHz:           0.2, // 0.1 × 2 GHz
		DFSIntervalCycles:     100,
		RVQLo:                 60,
		RVQHi:                 120,
		RecoveryPenaltyCycles: 80,
		EmergencyRamp:         true,
	}
}

// Validate reports malformed configurations.
func (c Config) Validate() error {
	if err := c.Lead.Validate(); err != nil {
		return err
	}
	if err := c.Checker.Validate(); err != nil {
		return err
	}
	if c.RVQSize <= 0 || c.LVQSize <= 0 || c.BOQSize <= 0 || c.StBSize <= 0 {
		return fmt.Errorf("core: non-positive queue size")
	}
	if c.LeadFreqGHz <= 0 || c.CheckerMaxFreqGHz <= 0 || c.FreqStepGHz <= 0 {
		return fmt.Errorf("core: non-positive frequency")
	}
	if c.DFSIntervalCycles <= 0 {
		return fmt.Errorf("core: non-positive DFS interval")
	}
	if c.RVQLo < 0 || c.RVQHi <= c.RVQLo || c.RVQHi > c.RVQSize {
		return fmt.Errorf("core: bad RVQ thresholds %d/%d", c.RVQLo, c.RVQHi)
	}
	return nil
}

// Traffic counts the values transmitted between the cores — the basis
// for the §3.4 interconnect power evaluation (register values, load
// values, branch outcomes to the checker; store values back).
type Traffic struct {
	RegisterValues uint64
	LoadValues     uint64
	BranchOutcomes uint64
	StoreValues    uint64
}

// SystemStats aggregates the RMT run.
type SystemStats struct {
	// WallTimePs is Cycles at the leading period, derived when read.
	WallTimePs        float64
	LeadStallCycles   uint64 // commit stalled on queue space
	RecoveryStalls    uint64 // cycles stalled during error recovery
	ErrorsDetected    uint64
	ErrorsRecovered   uint64
	ErrorsUnrecovered uint64
	DetectionSlackSum uint64 // RVQ occupancy at detection (latency proxy)
	Traffic           Traffic
	RVQOccupancySum   uint64
	Cycles            uint64
}

// MeanRVQOccupancy returns the time-average RVQ occupancy.
func (s SystemStats) MeanRVQOccupancy() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.RVQOccupancySum) / float64(s.Cycles)
}

// CheckerCycleHook is invoked once per checker cycle with the current
// checker period in picoseconds; the fault package uses it to inject
// frequency-dependent dynamic timing errors (§3.5).
type CheckerCycleHook func(periodPs float64, c *inorder.Checker)

// System is one reliable processor instance.
type System struct {
	cfg     Config
	lead    *ooo.Core
	checker *inorder.Checker

	rvq      []inorder.Entry
	rvqHead  int
	rvqCount int
	lvqCount int
	boqCount int
	stbCount int

	checkerFreqGHz float64
	// freqRatio is checkerFreqGHz over LeadFreqGHz and freqBin its
	// residency bin; setCheckerFreq keeps both in step with the
	// frequency. leadPeriodPs is fixed: no caller changes LeadFreqGHz
	// after New.
	freqRatio     float64
	freqBin       int
	leadPeriodPs  float64
	credit        float64
	cycle         uint64
	dfsCountdown  int // cycles until the next DFS evaluation
	recoveryStall int
	wedged        bool

	// freqBins is FreqResidency's shape, which places a frequency ratio
	// in its bin and holds no weight; residency counts the leading
	// cycles spent in each bin. Counting cycles as integers keeps the
	// residency exact whether a cycle is charged alone or in a stretch.
	freqBins  *stats.Histogram
	residency []uint64
	st        SystemStats

	hook CheckerCycleHook

	// leading-side fault propagation: registers whose architectural
	// value in the leading core is currently corrupted, with the XOR
	// mask applied.
	corruptReg map[isa.Reg]uint64
	// pendingResultCorruption is applied to the next register-writing
	// committed instruction.
	pendingResultCorruption uint64

	// view holds the checker's window when it wraps around the RVQ's
	// end; otherwise the checker reads the RVQ in place.
	view     []inorder.Entry
	outcomes []inorder.CheckOutcome
}

// New builds an RMT system over an existing leading core (constructed by
// the caller with its instruction source and L2).
func New(cfg Config, lead *ooo.Core) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:          cfg,
		lead:         lead,
		checker:      inorder.New(cfg.Checker),
		rvq:          make([]inorder.Entry, cfg.RVQSize),
		leadPeriodPs: 1000.0 / cfg.LeadFreqGHz,
		dfsCountdown: cfg.DFSIntervalCycles,
		freqBins:     newFreqHist(),
		corruptReg:   map[isa.Reg]uint64{},
		view:         make([]inorder.Entry, cfg.Checker.Width),
		outcomes:     make([]inorder.CheckOutcome, cfg.Checker.Width),
	}
	s.residency = make([]uint64, len(s.freqBins.Counts))
	s.setCheckerFreq(cfg.FreqStepGHz) // start at the lowest step
	return s, nil
}

// newFreqHist returns an empty frequency-residency histogram: 10 bins of
// 0.1 of the leading frequency.
func newFreqHist() *stats.Histogram { return stats.NewHistogram(0, 1.0001, 10) }

// Lead returns the leading core.
func (s *System) Lead() *ooo.Core { return s.lead }

// SetLead moves the system onto lead, a copy of its leading core as it
// stands (ooo.Core.CopyTo), between cycles.
func (s *System) SetLead(lead *ooo.Core) { s.lead = lead }

// Checker returns the trailing checker core.
func (s *System) Checker() *inorder.Checker { return s.checker }

// Stats returns a copy of the system statistics.
func (s *System) Stats() SystemStats {
	st := s.st
	st.WallTimePs = float64(st.Cycles) * s.leadPeriodPs
	return st
}

// ResetStats zeroes the system, leading-core and checker statistics and
// the frequency residency while keeping all microarchitectural and
// queue state — used to discard warmup windows.
func (s *System) ResetStats() {
	s.st = SystemStats{}
	s.lead.ResetStats()
	s.checker.ResetStats()
	clear(s.residency)
}

// CheckerFreqGHz returns the checker's current DFS frequency.
func (s *System) CheckerFreqGHz() float64 { return s.checkerFreqGHz }

// FreqResidency returns the histogram of wall-clock time spent at each
// normalized checker frequency (f_checker / f_lead, 10 bins of 0.1) —
// the paper's Figure 7 — built from the cycle counts when called. Each
// bin weighs its cycles at the leading period; at the 500 ps of the
// 2 GHz lead clock every such weight and every partial sum of them is
// an exact integer, so the histogram is the one a per-cycle float
// accumulation gives, bit for bit.
func (s *System) FreqResidency() *stats.Histogram {
	h := newFreqHist()
	for i, n := range s.residency {
		h.Add(h.BinCenter(i), float64(n)*s.leadPeriodPs)
	}
	return h
}

// MeanCheckerFreqGHz returns the time-weighted average checker frequency.
func (s *System) MeanCheckerFreqGHz() float64 {
	return s.FreqResidency().WeightedMeanValue() * s.cfg.LeadFreqGHz
}

// SetCheckerCycleHook installs a per-checker-cycle hook (fault
// injection).
func (s *System) SetCheckerCycleHook(h CheckerCycleHook) { s.hook = h }

// RVQOccupancy returns the current queue occupancy (the slack between
// the threads, in instructions).
func (s *System) RVQOccupancy() int { return s.rvqCount }

// --- fault injection --------------------------------------------------------

// CorruptNextLeadResult arranges for the next register-writing committed
// instruction to carry a result corrupted by xor-ing `mask` — modeling a
// transient or timing error in the leading core's datapath. The
// corruption propagates: until the register is overwritten, operand
// copies transmitted for instructions that read it carry the same
// corruption (dependent instructions in the leading core consumed the
// bad value).
func (s *System) CorruptNextLeadResult(mask uint64) {
	if mask == 0 {
		mask = 1
	}
	s.pendingResultCorruption = mask
}

// CorruptCheckerRF flips bits in the trailer register file (see
// inorder.Checker.CorruptRF).
func (s *System) CorruptCheckerRF(r isa.Reg, bits int) { s.checker.CorruptRF(r, bits) }

// WedgeChecker models a hard failure of the checker die's clock
// distribution: from the next cycle on the trailing core stops consuming
// queue entries, so the slack fills, the commit budget collapses to zero
// and the leading thread wedges at the RVQ barrier — a livelock, not a
// crash. The fault survey motivating the campaign harness treats exactly
// this outcome as a first-class result ("hung"), so injecting it lets
// the harness's forward-progress watchdog be exercised deliberately.
// A wedged system never finishes a Run or Drain on its own; it must be
// driven under a watchdog (see internal/campaign).
func (s *System) WedgeChecker() { s.wedged = true }

// Wedged reports whether a checker-die livelock has been injected.
func (s *System) Wedged() bool { return s.wedged }

// Progress returns a monotonically non-decreasing count of retirement
// events: leading-core committed instructions plus checker-verified
// instructions. External watchdogs use it as the forward-progress
// signal — a system whose Progress does not advance over a cycle window
// is livelocked (e.g. wedged at the RVQ barrier), even though Step
// keeps returning.
func (s *System) Progress() uint64 {
	return s.lead.Committed() + s.checker.Stats().Checked
}

// --- simulation -------------------------------------------------------------

// Step advances the system by one leading-core cycle.
func (s *System) Step() { s.step(nil, false) }

// StepOn advances the system by one leading-core cycle whose leading
// core the caller has stepped: committed is what it committed, which
// must be what the system's own leading core commits with this cycle's
// Budget. Systems that share one leading core step it once at full width
// and each take its commits, as long as their budgets allow them.
func (s *System) StepOn(committed []isa.Inst) { s.step(committed, true) }

// Budget returns the commit budget the next cycle gives the leading
// core, changing nothing: none during a recovery stall, else the room
// the queues leave (a quiet leading core with empty queues commits
// nothing whatever the budget). The cycle's DFS step changes only the
// checker's frequency, so this is the budget the cycle uses.
func (s *System) Budget() int {
	if s.recoveryStall > 0 {
		return 0
	}
	return s.commitBudget()
}

// step runs one leading-core cycle: the clock, the DFS controller and
// the commit gate, then the leading core's Step, unless the caller has
// given its commits, then the queues and the checker's cycles.
func (s *System) step(committed []isa.Inst, given bool) {
	dfsDue := s.tick()

	// DFS: adjust checker frequency on queue occupancy. The regular
	// threshold rule runs once per interval; when the RVQ is about to
	// stall the leading core the frequency ramps immediately — the paper
	// notes (citing Montecito) that a frequency change takes effect in a
	// single cycle, and its chosen heuristic is deliberately the less
	// aggressive one that "doesn't degrade the main core's performance
	// by itself".
	if s.ramping() {
		if s.checkerFreqGHz < s.cfg.CheckerMaxFreqGHz-1e-9 {
			s.setCheckerFreq(s.checkerFreqGHz + s.cfg.FreqStepGHz)
		}
	} else if dfsDue {
		switch {
		case s.rvqCount > s.cfg.RVQHi && s.checkerFreqGHz < s.cfg.CheckerMaxFreqGHz-1e-9:
			s.setCheckerFreq(s.checkerFreqGHz + s.cfg.FreqStepGHz)
		case s.rvqCount < s.cfg.RVQLo && s.checkerFreqGHz > s.cfg.FreqStepGHz+1e-9:
			s.setCheckerFreq(s.checkerFreqGHz - s.cfg.FreqStepGHz)
		}
	}
	s.residency[s.freqBin]++

	// Leading core: commit is gated by queue space (and recovery); the
	// rest of the pipeline keeps running even with a zero commit budget.
	budget := 0
	switch {
	case s.recoveryStall > 0:
		s.recoveryStall--
		s.st.RecoveryStalls++
	case s.rvqCount == 0 && (given || s.lead.Quiet() > 0):
		// Empty queues leave a non-zero budget, and a quiet core commits
		// nothing whatever its budget.
	default:
		if budget = s.commitBudget(); budget == 0 {
			s.st.LeadStallCycles++
		}
	}
	if !given {
		committed = s.lead.Step(budget)
	}
	for i := range committed {
		s.push(&committed[i])
	}

	// Checker: runs at its own clock; accumulate fractional cycles. A
	// wedged checker (injected livelock) earns no cycles at all.
	if s.wedged {
		return
	}
	s.credit += s.freqRatio
	for s.credit >= 1 {
		s.credit--
		s.checkerCycle()
	}
}

// StepQuiet runs k cycles in which the system's leading core commits
// nothing, exactly as k StepOn(nil) calls would; the caller has run the
// core through them (ooo.Core.Skip), or shares a core that commits
// nothing in them. Between events the cycles are charged in bulk: with
// no commits the queues change only at a checker cycle, and the checker
// frequency only at a DFS interval's end, so every cycle up to the next
// checker cycle adds the same counts. Only the checker's credit is still
// added once per cycle, as Step adds it, since a sum of float ratios
// rounds differently from their product. A run of checker cycles over
// an empty RVQ changes nothing but the checker's cycle counts, so it is
// counted in one call. A recovery stall (also one that a checker cycle
// starts mid-stretch), a checker hook, a wedge, the emergency ramp and
// the cycle that ends a DFS interval take Step's per-cycle body.
func (s *System) StepQuiet(k uint64) {
	for k > 0 {
		if s.recoveryStall > 0 || s.hook != nil || s.wedged || s.ramping() || s.dfsCountdown == 1 {
			s.step(nil, true)
			k--
			continue
		}
		n, empty := uint64(0), uint64(0)
		for limit := min(k, uint64(s.dfsCountdown-1)); n < limit; {
			n++
			if s.credit += s.freqRatio; s.credit < 1 {
				continue
			}
			if s.rvqCount > 0 {
				break
			}
			for ; s.credit >= 1; empty++ {
				s.credit--
			}
		}
		s.checker.StepEmpty(empty)
		s.charge(n)
		for s.credit >= 1 {
			s.credit--
			s.checkerCycle()
		}
		k -= n
	}
}

// Advance runs the next cycle, or, when the leading core is quiet, its
// quiet stretch in one call, at most limit cycles (limit ≥ 1): the core
// skips the stretch and StepQuiet runs it. It returns the cycles run.
func (s *System) Advance(limit uint64) uint64 {
	if k := min(s.lead.Quiet(), limit); k > 0 {
		s.lead.Skip(k)
		s.StepQuiet(k)
		return k
	}
	s.Step()
	return 1
}

// tick opens a leading cycle for Step and Drain alike: it advances the
// clock, charges the cycle's RVQ occupancy, and reports whether a DFS
// interval ends with it.
func (s *System) tick() bool {
	s.cycle++
	s.st.Cycles++
	s.st.RVQOccupancySum += uint64(s.rvqCount)
	if s.dfsCountdown--; s.dfsCountdown > 0 {
		return false
	}
	s.dfsCountdown = s.cfg.DFSIntervalCycles
	return true
}

// charge adds n cycles, none of which ends a DFS interval, to the clock
// and the counts, as n ticks and their residency and commit-stall counts
// would with the queues and the frequency as they stand, no recovery
// stall and a leading core that commits nothing.
func (s *System) charge(n uint64) {
	s.cycle += n
	s.st.Cycles += n
	s.st.RVQOccupancySum += uint64(s.rvqCount) * n
	s.dfsCountdown -= int(n)
	s.residency[s.freqBin] += n
	if s.rvqCount > 0 && s.commitBudget() == 0 {
		s.st.LeadStallCycles += n
	}
}

// ramping reports whether the RVQ is close enough to full for the
// emergency ramp to act.
func (s *System) ramping() bool {
	return s.cfg.EmergencyRamp && s.rvqCount >= s.cfg.RVQSize-2*s.cfg.Lead.CommitWidth
}

// setCheckerFreq moves the checker to f GHz.
func (s *System) setCheckerFreq(f float64) {
	s.checkerFreqGHz = f
	s.freqRatio = f / s.cfg.LeadFreqGHz
	s.freqBin = s.freqBins.BinOf(s.freqRatio)
}

// commitBudget bounds this cycle's leading-core commits by the free
// space in every queue (conservative: assumes the worst-case mix).
func (s *System) commitBudget() int {
	b := s.cfg.Lead.CommitWidth
	if free := s.cfg.RVQSize - s.rvqCount; free < b {
		b = free
	}
	if free := s.cfg.LVQSize - s.lvqCount; free < b {
		b = free
	}
	if free := s.cfg.BOQSize - s.boqCount; free < b {
		b = free
	}
	if free := s.cfg.StBSize - s.stbCount; free < b {
		b = free
	}
	if b < 0 {
		b = 0
	}
	return b
}

// rvqIndex returns the RVQ slot i entries past the head, for
// 0 ≤ i ≤ RVQSize.
func (s *System) rvqIndex(i int) int {
	if i += s.rvqHead; i >= len(s.rvq) {
		i -= len(s.rvq)
	}
	return i
}

// push enqueues a committed instruction, applying any pending
// leading-side corruption. It fills the RVQ slot in place, as
// inorder.MakeEntry would.
func (s *System) push(in *isa.Inst) {
	e := &s.rvq[s.rvqIndex(s.rvqCount)]
	e.Inst = *in
	e.LeadValue, e.LeadSrc1, e.LeadSrc2 = in.Value, in.Src1Val, in.Src2Val

	// Propagate existing leading-side corruption into operand copies.
	if len(s.corruptReg) > 0 {
		if m, ok := s.corruptReg[in.Src1]; ok && !in.Src1.IsZero() {
			e.LeadSrc1 ^= m
		}
		if m, ok := s.corruptReg[in.Src2]; ok && !in.Src2.IsZero() {
			e.LeadSrc2 ^= m
		}
		if in.HasDest() {
			delete(s.corruptReg, in.Dest) // overwritten with a fresh result
		}
	}
	// Apply a pending result corruption.
	if s.pendingResultCorruption != 0 && in.HasDest() {
		e.LeadValue ^= s.pendingResultCorruption
		s.corruptReg[in.Dest] = s.pendingResultCorruption
		s.pendingResultCorruption = 0
	}

	s.rvqCount++
	s.st.Traffic.RegisterValues++
	switch in.Op {
	case isa.Load:
		s.lvqCount++
		s.st.Traffic.LoadValues++
	case isa.Store:
		s.stbCount++
		s.st.Traffic.StoreValues++
	case isa.BranchCond, isa.BranchUncond:
		s.boqCount++
		s.st.Traffic.BranchOutcomes++
	}
}

// checkerCycle runs one trailing-core cycle.
func (s *System) checkerCycle() {
	if s.hook != nil {
		s.hook(1000.0/s.checkerFreqGHz, s.checker)
	}
	if s.rvqCount == 0 {
		s.checker.Step(nil, s.outcomes)
		return
	}
	n := min(s.rvqCount, len(s.view))
	view := s.rvq[s.rvqHead:]
	if len(view) < n {
		k := copy(s.view, view)
		copy(s.view[k:n], s.rvq)
		view = s.view
	}
	view = view[:n]
	issued := s.checker.Step(view, s.outcomes)
	detected := false
	for i := 0; i < issued; i++ {
		switch view[i].Inst.Op {
		case isa.Load:
			s.lvqCount--
		case isa.Store:
			s.stbCount-- // store checked: the leading StB drains it
		case isa.BranchCond, isa.BranchUncond:
			s.boqCount--
		}
		// One recovery event per cycle: the first mismatch triggers the
		// rollback; anything the checker consumed alongside it belongs
		// to the squashed-and-replayed window.
		if s.outcomes[i] != inorder.CheckOK && !detected {
			detected = true
			s.onErrorDetected(s.outcomes[i] == inorder.CheckUnrecoverable)
		}
	}
	s.rvqHead = s.rvqIndex(issued)
	s.rvqCount -= issued
}

// onErrorDetected models the paper's recovery: the trailer register file
// is the recovery point. If the mismatch involved a register corrupted
// beyond ECC capability the error is unrecoverable; otherwise the
// leading core is stalled for the recovery penalty while state is
// restored.
func (s *System) onErrorDetected(unrecoverable bool) {
	s.st.ErrorsDetected++
	s.st.DetectionSlackSum += uint64(s.rvqCount)
	if unrecoverable {
		s.st.ErrorsUnrecovered++
		return
	}
	s.st.ErrorsRecovered++
	s.recoveryStall += s.cfg.RecoveryPenaltyCycles
	// Leading-side architectural state is restored from the trailer and
	// the slack window re-executes: in-flight corruption is gone, and
	// the queued entries are replaced by their correct replay values
	// (the recovery penalty charges the replay time).
	clear(s.corruptReg)
	for i := 0; i < s.rvqCount; i++ {
		idx := s.rvqIndex(i)
		s.rvq[idx] = inorder.MakeEntry(s.rvq[idx].Inst)
	}
}

// Run advances the system until the leading core has committed n
// instructions, and returns the final statistics. It runs each quiet
// stretch of the leading core in one call (Advance).
func (s *System) Run(n uint64) SystemStats {
	s.lead.SetFetchBudget(n)
	for s.lead.Committed() < n && !s.lead.Drained() {
		s.Advance(^uint64(0))
	}
	return s.Stats()
}

// Drain services the paper's interrupt/exception barrier: the leading
// thread must wait for the trailing thread to catch up (empty RVQ)
// before an external interrupt can be taken, so that the architectural
// state handed to the handler is fully verified. It runs the system
// with the leading core's commit gated off until the checker has
// consumed every queued instruction, and returns the barrier latency in
// leading-core cycles.
func (s *System) Drain() uint64 {
	start := s.cycle
	for s.rvqCount > 0 && !s.wedged {
		s.tick()
		// The checker sprints at its peak frequency to clear the queue
		// (DFS would ramp anyway with the leading thread stalled).
		s.setCheckerFreq(s.cfg.CheckerMaxFreqGHz)
		s.residency[s.freqBin]++
		s.lead.Step(0)
		s.st.LeadStallCycles++
		s.credit += s.freqRatio
		for s.credit >= 1 && s.rvqCount > 0 {
			s.credit--
			s.checkerCycle()
		}
	}
	return s.cycle - start
}
