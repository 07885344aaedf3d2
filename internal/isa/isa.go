// Package isa defines the synthetic instruction-set abstraction the
// simulator executes. The paper used the Alpha AXP ISA under
// SimpleScalar; this reproduction keeps the microarchitecturally relevant
// properties of an instruction — operation class, register dependences,
// memory address, branch behaviour, result value — without encoding a
// full ISA, which is sufficient for the timing, power, thermal and
// reliability studies the paper performs.
package isa

import "fmt"

// OpClass classifies an instruction by the functional unit it needs.
type OpClass uint8

// Operation classes. Functional-unit counts come from Table 1:
// 4 integer ALUs, 2 integer multipliers, 1 FP ALU, 1 FP multiplier.
const (
	IntALU OpClass = iota
	IntMult
	FPALU
	FPMult
	Load
	Store
	BranchCond
	BranchUncond
	NumOpClasses
)

var opClassNames = [NumOpClasses]string{
	"IntALU", "IntMult", "FPALU", "FPMult", "Load", "Store", "BranchCond", "BranchUncond",
}

func (c OpClass) String() string {
	if int(c) < len(opClassNames) {
		return opClassNames[c]
	}
	return fmt.Sprintf("OpClass(%d)", uint8(c))
}

// IsBranch reports whether the class is a control transfer.
func (c OpClass) IsBranch() bool { return c == BranchCond || c == BranchUncond }

// IsMem reports whether the class accesses data memory.
func (c OpClass) IsMem() bool { return c == Load || c == Store }

// IsFP reports whether the class uses the floating-point cluster.
func (c OpClass) IsFP() bool { return c == FPALU || c == FPMult }

// Latency returns the execution latency of the class in cycles,
// exclusive of memory-hierarchy time for loads.
func (c OpClass) Latency() int {
	switch c {
	case IntALU, BranchCond, BranchUncond, Store:
		return 1
	case IntMult:
		return 3
	case FPALU:
		return 4
	case FPMult:
		return 4
	case Load:
		return 1 // address generation; cache adds the rest
	default:
		return 1
	}
}

// Register file shape: 32 integer + 32 floating-point architectural
// registers, Alpha-style. Register 31 (and f31) reads as zero.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
	NumRegs    = NumIntRegs + NumFPRegs
	ZeroReg    = 31
)

// Reg names an architectural register: 0..31 integer, 32..63 FP.
type Reg uint8

// IsZero reports whether the register is a hardwired zero register.
func (r Reg) IsZero() bool { return r == ZeroReg || r == NumIntRegs+ZeroReg }

// Inst is one dynamic instruction as produced by the workload generator
// and consumed by both cores.
type Inst struct {
	// Seq is the dynamic sequence number (commit order).
	Seq uint64
	// PC is the instruction address.
	PC uint64
	// Op is the operation class.
	Op OpClass
	// Dest is the destination register (ZeroReg for none, e.g. stores
	// and branches).
	Dest Reg
	// Src1, Src2 are source registers (ZeroReg when unused).
	Src1, Src2 Reg
	// Taken is the branch outcome for branches. It sits beside the
	// register bytes, which keeps Inst at 64 bytes.
	Taken bool
	// Addr is the effective address for loads and stores.
	Addr uint64
	// Target is the branch target for taken branches.
	Target uint64
	// Value is the architectural result (used by the checking process:
	// the leading core passes committed results through the RVQ and the
	// checker verifies them).
	Value uint64
	// Src1Val, Src2Val are the architectural source-operand values. The
	// leading core passes them to the trailing core alongside the result
	// (the paper's register value prediction: 192 bits per instruction,
	// Table 4), where they are verified against the trailer's register
	// file before the result is accepted.
	Src1Val, Src2Val uint64
}

// HasDest reports whether the instruction writes a register.
func (in *Inst) HasDest() bool {
	return !in.Dest.IsZero() && in.Op != Store && !in.Op.IsBranch()
}
