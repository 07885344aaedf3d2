// Package fault implements the paper's fault models and a Monte Carlo
// injection campaign over the RMT system of package core:
//
//   - soft errors: particle strikes flipping register bits, at a rate
//     scaled by the process node's per-bit SER (Figure 8) and chip
//     density, with a multi-bit-upset fraction from the Figure 9 model;
//   - dynamic timing errors: per-cycle, per-stage failures whose
//     probability depends on the slack between the operating period and
//     the (process-dependent) critical path, using the Table 6
//     variability model; correlated bursts model the paper's observation
//     that timing errors often arrive together (§3.5).
//
// Error rates are accelerated by a configurable factor so that windows
// of a few hundred thousand instructions observe statistically useful
// counts — real per-cycle rates are ~1e-15; the relative comparisons
// (checker at 0.6·f vs 1.0·f, 65 nm vs 90 nm die) are rate-independent.
package fault

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"r3d/internal/core"
	"r3d/internal/inorder"
	"r3d/internal/isa"
	"r3d/internal/tech"
)

// TimingInjector injects dynamic timing errors into the checker as a
// core.CheckerCycleHook: each checker cycle, each pipeline stage fails
// with the probability given by the node's timing model for the current
// period, and a failure corrupts the trailer register file (single-bit,
// or multi-bit for a burst).
type TimingInjector struct {
	Model tech.TimingModel
	// CritPathPs is the stage critical path at the checker's design
	// point (500 ps at 65 nm for a 2 GHz pipeline; 714 ps on the §4
	// 90 nm die).
	CritPathPs float64
	// Stages is the number of pipeline stages sampled per cycle.
	Stages int
	// BurstProb is the probability that an error is part of a
	// correlated burst and flips multiple bits (beyond ECC).
	BurstProb float64
	// Accel multiplies the error probability to make rare events
	// observable in short windows.
	Accel float64

	rng      *rand.Rand
	Injected uint64
	Bursts   uint64
}

// NewTimingInjector builds an injector with a deterministic seed.
func NewTimingInjector(node tech.Node, critPathPs float64, accel float64, seed int64) *TimingInjector {
	return &TimingInjector{
		Model:      tech.TimingModelFor(node),
		CritPathPs: critPathPs,
		Stages:     8,
		BurstProb:  0.3,
		Accel:      accel,
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// Hook implements core.CheckerCycleHook.
func (t *TimingInjector) Hook(periodPs float64, c *inorder.Checker) {
	p := t.Model.ErrorProbability(periodPs, t.CritPathPs) * t.Accel
	if p <= 0 {
		return
	}
	if p > 1 {
		p = 1
	}
	for s := 0; s < t.Stages; s++ {
		if t.rng.Float64() >= p {
			continue
		}
		t.Injected++
		reg := isa.Reg(t.rng.Intn(isa.NumRegs))
		bits := 1
		if t.rng.Float64() < t.BurstProb {
			bits = 2 + t.rng.Intn(2)
			t.Bursts++
		}
		c.CorruptRF(reg, bits)
	}
}

// ExpectedStageErrorProb returns the per-stage, per-cycle probability at
// the given operating period without acceleration — used to report the
// §3.5/§4 error-rate comparisons analytically.
func (t *TimingInjector) ExpectedStageErrorProb(periodPs float64) float64 {
	return t.Model.ErrorProbability(periodPs, t.CritPathPs)
}

// SoftErrorInjector injects particle-strike upsets into the leading
// core's results and the trailer register file at Poisson arrivals.
type SoftErrorInjector struct {
	// LeadPerMCycle and CheckerPerMCycle are arrival rates per million
	// leading-core cycles (already accelerated).
	LeadPerMCycle    float64
	CheckerPerMCycle float64
	// MBUProb is the probability that an upset flips multiple bits
	// (Figure 9 at the node's critical charge).
	MBUProb float64

	rng          *rand.Rand
	nextLead     uint64
	nextChecker  uint64
	LeadInjected uint64
	RFInjected   uint64
	MBUs         uint64
}

// NewSoftErrorInjector builds an injector for a node: the MBU share
// comes from the Figure 9 model at that node's critical charge.
func NewSoftErrorInjector(node tech.Node, leadPerM, checkerPerM float64, seed int64) (*SoftErrorInjector, error) {
	mbu, err := tech.NodeMBU(node)
	if err != nil {
		return nil, err
	}
	s := &SoftErrorInjector{
		LeadPerMCycle:    leadPerM,
		CheckerPerMCycle: checkerPerM,
		MBUProb:          mbu,
		rng:              rand.New(rand.NewSource(seed)),
	}
	s.nextLead = s.exp(leadPerM)
	s.nextChecker = s.exp(checkerPerM)
	return s, nil
}

func (s *SoftErrorInjector) exp(ratePerM float64) uint64 {
	if ratePerM <= 0 {
		return ^uint64(0)
	}
	return uint64(s.rng.ExpFloat64() * 1e6 / ratePerM)
}

// Tick advances one leading cycle, injecting due faults into sys.
func (s *SoftErrorInjector) Tick(sys *core.System) {
	if s.nextLead != ^uint64(0) {
		if s.nextLead == 0 {
			mask := uint64(1) << uint(s.rng.Intn(64))
			s.LeadInjected++
			sys.CorruptNextLeadResult(mask)
			s.nextLead = s.exp(s.LeadPerMCycle)
		} else {
			s.nextLead--
		}
	}
	if s.nextChecker != ^uint64(0) {
		if s.nextChecker == 0 {
			bits := 1
			if s.rng.Float64() < s.MBUProb {
				bits = 2 + s.rng.Intn(2)
				s.MBUs++
			}
			s.RFInjected++
			sys.CorruptCheckerRF(isa.Reg(s.rng.Intn(isa.NumRegs)), bits)
			s.nextChecker = s.exp(s.CheckerPerMCycle)
		} else {
			s.nextChecker--
		}
	}
}

// ErrCycleBudget is wrapped by RunCampaign when the hard cycle budget
// runs out before the instruction target: the simulated system stopped
// making forward progress (a wedge, a recovery storm, or simply a budget
// set too tight), and the caller can distinguish it from a config error
// with errors.Is.
var ErrCycleBudget = errors.New("fault: cycle budget exhausted before instruction target")

// DefaultCycleBudget returns a generous hard cycle cap for a campaign
// over n instructions: worst-case observed CPIs in the suite are below
// 10 even under heavy recovery storms, so 400 cycles per instruction
// plus a fixed floor only ever triggers on a genuinely wedged system.
func DefaultCycleBudget(n uint64) uint64 {
	const perInst, floor = 400, 1 << 20
	if n > (^uint64(0)-floor)/perInst {
		return ^uint64(0)
	}
	return n*perInst + floor
}

// CampaignConfig drives RunCampaign.
type CampaignConfig struct {
	Instructions uint64
	// CycleBudget is the hard cap on leading-core cycles. The run loop
	// terminates with ErrCycleBudget when it is reached, so a campaign
	// over a wedged system always returns. Required; see
	// DefaultCycleBudget for a safe default.
	CycleBudget uint64
	// Soft-error rates per million leading cycles (accelerated).
	LeadSoftPerMCycle    float64
	CheckerSoftPerMCycle float64
	// Timing-error injection (nil model disables): node, critical path
	// and acceleration.
	TimingNode   tech.Node
	CritPathPs   float64
	TimingAccel  float64
	EnableTiming bool

	// LivelockAfterCycles, when non-zero, wedges the checker die at the
	// given leading cycle (core.System.WedgeChecker) — a deliberate
	// harness self-test fault whose expected outcome is a watchdog trip,
	// not campaign completion.
	LivelockAfterCycles uint64

	Seed int64
}

// Validate reports malformed configurations.
func (c CampaignConfig) Validate() error {
	if c.Instructions == 0 {
		return fmt.Errorf("fault: zero-instruction campaign")
	}
	if c.CycleBudget == 0 {
		return fmt.Errorf("fault: zero cycle budget (see DefaultCycleBudget)")
	}
	if c.LeadSoftPerMCycle < 0 || c.CheckerSoftPerMCycle < 0 {
		return fmt.Errorf("fault: negative rate")
	}
	if math.IsNaN(c.LeadSoftPerMCycle) || math.IsNaN(c.CheckerSoftPerMCycle) {
		return fmt.Errorf("fault: NaN rate")
	}
	if c.EnableTiming {
		if c.CritPathPs <= 0 || math.IsNaN(c.CritPathPs) {
			return fmt.Errorf("fault: timing injection needs a critical path")
		}
		if c.TimingAccel < 0 || math.IsNaN(c.TimingAccel) {
			return fmt.Errorf("fault: negative or NaN timing acceleration")
		}
	}
	return nil
}

// CampaignResult summarizes an injection run.
type CampaignResult struct {
	Instructions    uint64
	Cycles          uint64
	LeadInjected    uint64
	RFInjected      uint64
	MBUs            uint64
	TimingInjected  uint64
	TimingBursts    uint64
	Detected        uint64
	Recovered       uint64
	Unrecovered     uint64
	MeanDetectSlack float64
}

// Coverage returns detected errors per injected leading-core error
// (checker-side upsets surface only when the corrupted register is
// read, so coverage is defined against leading-side injections).
func (r CampaignResult) Coverage() float64 {
	if r.LeadInjected == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.LeadInjected)
}

// Campaign is a stepwise injection run over one RMT system: the
// injectors are wired at construction and each Step advances one leading
// cycle. RunCampaign drives it to completion serially; the worker-pool
// harness in internal/campaign drives it under a forward-progress
// watchdog instead, interleaving progress checks between steps.
type Campaign struct {
	sys    *core.System
	cfg    CampaignConfig
	soft   *SoftErrorInjector
	timing *TimingInjector
	cycles uint64
}

// NewCampaign validates the config and wires the injectors onto sys.
func NewCampaign(sys *core.System, cfg CampaignConfig) (*Campaign, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	soft, err := NewSoftErrorInjector(nodeOr65(cfg.TimingNode), cfg.LeadSoftPerMCycle, cfg.CheckerSoftPerMCycle, cfg.Seed)
	if err != nil {
		return nil, err
	}
	c := &Campaign{sys: sys, cfg: cfg, soft: soft}
	if cfg.EnableTiming {
		c.timing = NewTimingInjector(nodeOr65(cfg.TimingNode), cfg.CritPathPs, cfg.TimingAccel, cfg.Seed+1)
		sys.SetCheckerCycleHook(c.timing.Hook)
	}
	sys.Lead().SetFetchBudget(cfg.Instructions)
	return c, nil
}

// Step advances one leading cycle: due faults are injected, the system
// steps, and a configured livelock wedge is armed at its cycle.
func (c *Campaign) Step() {
	c.cycles++
	if c.cfg.LivelockAfterCycles > 0 && c.cycles == c.cfg.LivelockAfterCycles {
		c.sys.WedgeChecker()
	}
	c.soft.Tick(c.sys)
	c.sys.Step()
}

// Done reports whether the instruction target is reached (or the
// workload drained). A wedged system is never Done — terminating anyway
// is the watchdog's job.
func (c *Campaign) Done() bool {
	return c.sys.Lead().Committed() >= c.cfg.Instructions || c.sys.Lead().Drained()
}

// Cycles returns the leading cycles stepped so far.
func (c *Campaign) Cycles() uint64 { return c.cycles }

// BudgetExhausted reports whether the hard cycle budget is spent.
func (c *Campaign) BudgetExhausted() bool { return c.cycles >= c.cfg.CycleBudget }

// System returns the system under injection (for progress probes).
func (c *Campaign) System() *core.System { return c.sys }

// Result summarizes the run so far.
func (c *Campaign) Result() CampaignResult {
	st := c.sys.Stats()
	res := CampaignResult{
		Instructions: c.sys.Lead().Stats().Instructions,
		Cycles:       c.cycles,
		LeadInjected: c.soft.LeadInjected,
		RFInjected:   c.soft.RFInjected,
		MBUs:         c.soft.MBUs,
		Detected:     st.ErrorsDetected,
		Recovered:    st.ErrorsRecovered,
		Unrecovered:  st.ErrorsUnrecovered,
	}
	if c.timing != nil {
		res.TimingInjected = c.timing.Injected
		res.TimingBursts = c.timing.Bursts
	}
	if st.ErrorsDetected > 0 {
		res.MeanDetectSlack = float64(st.DetectionSlackSum) / float64(st.ErrorsDetected)
	}
	return res
}

// RunCampaign executes an injection campaign over a freshly-built RMT
// system. The caller supplies the system (workload, L2 organization and
// checker frequency cap are its business); the campaign wires injectors,
// runs, and reports. The run always terminates: when cfg.CycleBudget is
// reached first, the partial result is returned along with an error
// wrapping ErrCycleBudget.
func RunCampaign(sys *core.System, cfg CampaignConfig) (CampaignResult, error) {
	c, err := NewCampaign(sys, cfg)
	if err != nil {
		return CampaignResult{}, err
	}
	for !c.Done() {
		if c.BudgetExhausted() {
			return c.Result(), fmt.Errorf("%w: %d cycles spent, %d/%d instructions",
				ErrCycleBudget, c.cycles, sys.Lead().Stats().Instructions, cfg.Instructions)
		}
		c.Step()
	}
	return c.Result(), nil
}

func nodeOr65(n tech.Node) tech.Node {
	if n == 0 {
		return tech.Node65
	}
	return n
}
