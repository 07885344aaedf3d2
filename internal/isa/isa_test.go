package isa

import (
	"testing"
	"unsafe"
)

func TestOpClassPredicates(t *testing.T) {
	if !BranchCond.IsBranch() || !BranchUncond.IsBranch() {
		t.Error("branches must report IsBranch")
	}
	if IntALU.IsBranch() || Load.IsBranch() {
		t.Error("non-branches must not report IsBranch")
	}
	if !Load.IsMem() || !Store.IsMem() {
		t.Error("memory ops must report IsMem")
	}
	if IntALU.IsMem() {
		t.Error("ALU is not memory")
	}
	if !FPALU.IsFP() || !FPMult.IsFP() || IntMult.IsFP() {
		t.Error("FP predicate wrong")
	}
}

func TestOpClassString(t *testing.T) {
	if IntALU.String() != "IntALU" {
		t.Errorf("String = %q", IntALU.String())
	}
	if OpClass(200).String() == "" {
		t.Error("unknown class should still render")
	}
}

func TestLatencyPositive(t *testing.T) {
	for c := OpClass(0); c < NumOpClasses; c++ {
		if c.Latency() < 1 {
			t.Errorf("%s latency %d < 1", c, c.Latency())
		}
	}
	if IntMult.Latency() <= IntALU.Latency() {
		t.Error("multiply should be slower than ALU")
	}
}

func TestZeroRegisters(t *testing.T) {
	if !Reg(31).IsZero() {
		t.Error("r31 is the zero register")
	}
	if !Reg(63).IsZero() {
		t.Error("f31 is the zero register")
	}
	if Reg(0).IsZero() || Reg(32).IsZero() {
		t.Error("r0/f0 are not zero registers")
	}
}

func TestHasDest(t *testing.T) {
	alu := Inst{Op: IntALU, Dest: 3}
	if !alu.HasDest() {
		t.Error("ALU with dest r3 writes a register")
	}
	st := Inst{Op: Store, Dest: 3}
	if st.HasDest() {
		t.Error("stores do not write registers")
	}
	br := Inst{Op: BranchCond, Dest: 3}
	if br.HasDest() {
		t.Error("conditional branches do not write registers")
	}
	zero := Inst{Op: IntALU, Dest: ZeroReg}
	if zero.HasDest() {
		t.Error("writes to r31 are discarded")
	}
}

// TestInstFitsACacheLine: every pipeline structure holds Inst values,
// and the padding of a bool between two words would add a ninth word.
func TestInstFitsACacheLine(t *testing.T) {
	if size := unsafe.Sizeof(Inst{}); size > 64 {
		t.Errorf("an Inst takes %d bytes, want at most 64", size)
	}
}
