// Package inorder models the paper's trailing checker core (§2): a
// simple in-order pipeline that re-executes the committed instruction
// stream of the leading core. Three properties make it both cheap and
// fast (§2.1):
//
//   - it never accesses the data cache: load values arrive through the
//     LVQ;
//   - it has perfect branch prediction: outcomes arrive through the BOQ;
//   - register value prediction (RVP): input operands arrive through the
//     RVQ, so instructions never stall on data dependences — ILP is
//     bounded only by fetch/issue width and functional units.
//
// Because of RVP the checker sustains close to its issue width and can
// therefore run at a fraction of the leading core's frequency (the §3.5
// histogram peaks at 0.6·f; the average is ≈0.45–0.6·f depending on
// workload), which is what gives every pipeline stage its conservative
// timing margin.
//
// The checker performs the actual verification: operand values from the
// RVQ are compared against the trailer's architectural register file and
// the leading core's result is compared against the value implied by the
// verified operands. Any injected corruption — in the leading core's
// results, in the queues, or in the trailer's register file — surfaces
// as a check mismatch here.
package inorder

import (
	"fmt"
	"math/bits"

	"r3d/internal/isa"
)

// Config describes the checker microarchitecture. The paper's checker is
// a full-fledged in-order core with the leading core's functional-unit
// mix (it can run a leading thread itself if needed).
type Config struct {
	Width   int // fetch/issue/commit width
	IntALU  int
	IntMult int
	FPALU   int
	FPMult  int

	// ECCProtectedRF marks the trailer register file as ECC protected —
	// required for recovery (§2): single-bit upsets are corrected,
	// double-bit upsets are detected but not correctable.
	ECCProtectedRF bool
}

// Default returns the checker configuration used throughout the paper's
// evaluation: same widths and FU mix as the leading core.
func Default() Config {
	return Config{Width: 4, IntALU: 4, IntMult: 2, FPALU: 1, FPMult: 1, ECCProtectedRF: true}
}

// Validate reports malformed configurations.
func (c Config) Validate() error {
	if c.Width <= 0 || c.IntALU <= 0 || c.IntMult <= 0 || c.FPALU <= 0 || c.FPMult <= 0 {
		return fmt.Errorf("inorder: non-positive resource count")
	}
	return nil
}

// CheckOutcome classifies the verification result of one instruction.
type CheckOutcome uint8

const (
	// CheckOK means operands and result matched.
	CheckOK CheckOutcome = iota
	// CheckMismatch means the leading core's result disagreed with the
	// checker's computation (leading-core error detected).
	CheckMismatch
	// CheckOperandMismatch means an RVQ operand disagreed with the
	// trailer register file (error in the queues, an earlier undetected
	// result corruption, or a trailer RF upset).
	CheckOperandMismatch
	// CheckUnrecoverable means the mismatch involved a trailer register
	// corrupted beyond single-bit ECC capability — the recovery point
	// itself is damaged (§2's residual failure mode).
	CheckUnrecoverable
)

// Stats accumulates checker activity (consumed by the power model) and
// verification counters.
type Stats struct {
	Cycles      uint64
	Issued      uint64
	IssuedInt   uint64
	IssuedFP    uint64
	IssuedMem   uint64
	FUStalls    uint64 // issue slots lost to functional-unit conflicts
	EmptyCycles uint64

	Checked           uint64
	ResultMismatches  uint64
	OperandMismatches uint64
	ECCCorrected      uint64
}

// IPC returns issued instructions per checker cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Issued) / float64(s.Cycles)
}

// Checker is one trailing-core instance.
type Checker struct {
	cfg   Config
	stats Stats

	// rf is the trailer's architectural register file — the recovery
	// point of the whole reliable processor. eccBad tracks, per
	// register, how many flipped bits ECC would see.
	rf     [isa.NumRegs]uint64
	eccBad [isa.NumRegs]uint8
}

// New builds a checker; it panics on invalid configuration.
func New(cfg Config) *Checker {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Checker{cfg: cfg}
}

// Stats returns a copy of the counters.
func (c *Checker) Stats() Stats { return c.stats }

// ResetStats zeroes the counters, keeping architectural state.
func (c *Checker) ResetStats() { c.stats = Stats{} }

// Config returns the checker configuration.
func (c *Checker) Config() Config { return c.cfg }

// RegisterFile returns the current value of register r (after ECC
// correction if applicable) — used by recovery.
func (c *Checker) RegisterFile(r isa.Reg) uint64 { return c.rf[r] }

// CorruptRF flips `bitCount` bits of register r, modeling a particle
// strike or timing error in the trailer register file. ECC corrects a
// single flipped bit on the next read; more than one is unrecoverable.
func (c *Checker) CorruptRF(r isa.Reg, bitCount int) {
	for i := 0; i < bitCount && i < 64; i++ {
		c.rf[r] ^= 1 << uint(i*7%64)
	}
	c.eccBad[r] += uint8(bitCount)
}

// Entry is one RVQ entry as seen by the checker: the ground-truth
// instruction (what the trailer's own execution produces) alongside the
// values actually transmitted by the leading core, which fault injection
// may have corrupted anywhere between the leading core's datapath and
// the queues.
type Entry struct {
	Inst isa.Inst
	// LeadValue is the result as produced by the leading core and
	// carried in the RVQ.
	LeadValue uint64
	// LeadSrc1, LeadSrc2 are the RVP operand copies carried in the RVQ.
	LeadSrc1, LeadSrc2 uint64
}

// MakeEntry wraps a committed instruction into an uncorrupted Entry.
func MakeEntry(in isa.Inst) Entry {
	return Entry{Inst: in, LeadValue: in.Value, LeadSrc1: in.Src1Val, LeadSrc2: in.Src2Val}
}

// Step executes one checker cycle over the pending committed-instruction
// window `next` (oldest first). It returns how many instructions were
// issued+checked this cycle; per-instruction outcomes are written into
// the caller's outcomes buffer, which must be at least Width long.
//
// In-order issue with RVP: instructions issue strictly in order, stall
// only on structural hazards, and never on data dependences.
func (c *Checker) Step(next []Entry, outcomes []CheckOutcome) int {
	c.stats.Cycles++
	if len(next) == 0 {
		c.stats.EmptyCycles++
		return 0
	}
	alu, mul, fpa, fpm := c.cfg.IntALU, c.cfg.IntMult, c.cfg.FPALU, c.cfg.FPMult
	n := 0
	for n < c.cfg.Width && n < len(next) {
		in := &next[n].Inst
		switch in.Op {
		case isa.IntALU, isa.BranchCond, isa.BranchUncond, isa.Load, isa.Store:
			if alu == 0 {
				c.stats.FUStalls++
				goto done
			}
			alu--
		case isa.IntMult:
			if mul == 0 {
				c.stats.FUStalls++
				goto done
			}
			mul--
		case isa.FPALU:
			if fpa == 0 {
				c.stats.FUStalls++
				goto done
			}
			fpa--
		case isa.FPMult:
			if fpm == 0 {
				c.stats.FUStalls++
				goto done
			}
			fpm--
		}
		outcomes[n] = c.check(&next[n])
		n++
	}
done:
	c.stats.Issued += uint64(n)
	return n
}

// StepEmpty runs n checker cycles over an empty window in one call, as n
// Steps given nothing would.
func (c *Checker) StepEmpty(n uint64) {
	c.stats.Cycles += n
	c.stats.EmptyCycles += n
}

// check verifies one instruction against the trailer register file and
// updates architectural state. The comparison order mirrors §2.1: the
// RVP operand copies are verified against the trailer RF first; if they
// check out, the trailer's own computation (ground truth — loads take
// their value from the ECC-protected LVQ) is compared with the result
// the leading core transmitted.
func (c *Checker) check(e *Entry) CheckOutcome {
	in := &e.Inst
	c.stats.Checked++
	switch {
	case in.Op.IsMem():
		c.stats.IssuedMem++
	case in.Op.IsFP():
		c.stats.IssuedFP++
	default:
		c.stats.IssuedInt++
	}

	ok1 := c.verifyOperand(in.Src1, e.LeadSrc1)
	ok2 := in.Op.IsBranch() || c.verifyOperand(in.Src2, e.LeadSrc2)
	if !ok1 || !ok2 {
		c.stats.OperandMismatches++
		outcome := CheckOperandMismatch
		// Classify before resynchronizing: a mismatch on a register
		// whose ECC state shows damage beyond one bit means the
		// recovery point itself is corrupt.
		if (!ok1 && c.beyondECC(in.Src1)) || (!ok2 && c.beyondECC(in.Src2)) {
			outcome = CheckUnrecoverable
		}
		// Post-detection resynchronization: recovery reconciles the two
		// cores' views of this register, so the disagreement is flagged
		// exactly once rather than on every subsequent read.
		if !ok1 && !in.Src1.IsZero() {
			c.rf[in.Src1] = e.LeadSrc1
			c.eccBad[in.Src1] = 0
		}
		if !ok2 && !in.Src2.IsZero() {
			c.rf[in.Src2] = e.LeadSrc2
			c.eccBad[in.Src2] = 0
		}
		return outcome
	}

	outcome := CheckOK
	if in.HasDest() {
		truth := in.Value
		if e.LeadValue != truth {
			c.stats.ResultMismatches++
			outcome = CheckMismatch
		}
		// The trailer writes its own (correct) result regardless — this
		// is exactly why its register file is the recovery point.
		if !in.Dest.IsZero() {
			c.rf[in.Dest] = truth
			c.eccBad[in.Dest] = 0
		}
	}
	return outcome
}

// verifyOperand compares a passed operand value with the trailer RF,
// applying ECC semantics on the RF side: a single-bit upset is corrected
// transparently; multi-bit upsets leave the mismatch standing.
func (c *Checker) verifyOperand(r isa.Reg, passed uint64) bool {
	if r.IsZero() {
		return true
	}
	have := c.rf[r]
	if have == passed {
		return true
	}
	if c.cfg.ECCProtectedRF && c.eccBad[r] > 0 && bits.OnesCount64(have^passed) == 1 {
		// ECC corrects the single flipped bit in the RF.
		c.rf[r] = passed
		c.eccBad[r] = 0
		c.stats.ECCCorrected++
		return true
	}
	return false
}

// beyondECC reports whether register r currently holds damage ECC
// cannot repair: two or more flipped bits with ECC, or any flip without.
func (c *Checker) beyondECC(r isa.Reg) bool {
	if r.IsZero() {
		return false
	}
	if c.cfg.ECCProtectedRF {
		return c.eccBad[r] >= 2
	}
	return c.eccBad[r] >= 1
}

// UnrecoverableRF reports whether any trailer register currently holds a
// corruption beyond single-bit ECC capability. If an error is detected
// while this is true, recovery from the trailer RF cannot be trusted —
// the multi-bit-upset scenario of §3.5 that motivates conservative
// margins and the older-process checker die.
func (c *Checker) UnrecoverableRF() bool {
	for r := range c.eccBad {
		if c.beyondECC(isa.Reg(r)) {
			return true
		}
	}
	return false
}
