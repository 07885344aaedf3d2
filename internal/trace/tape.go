package trace

import (
	"sync"

	"r3d/internal/isa"
)

// A Tape records one Generator's stream so that several simulations
// over the same (profile, seed) draw it once and replay it many times.
// The recording is append-only and chunked: a reader that runs past the
// end records the next chunk from the generator, under the tape's lock,
// and every chunk is immutable once recorded, so any number of readers
// replay one tape concurrently.
//
// A record keeps only what the generator drew: the operation, its
// registers and branch outcome, and two words — the address and the
// result of a non-branch, the PC and the target of a branch. A reader
// re-derives the rest exactly as the generator derives it: Seq counts
// from the generator's position when the tape was made, a non-branch's
// PC follows the previous instruction (the next word after a
// non-branch, the target or fall-through after a branch), and
// Src1Val/Src2Val are read from a register file that each result
// writes. Seq, the PC of a non-branch and the operand values are
// therefore never stored.
type Tape struct {
	mu sync.Mutex
	// gen is the generator the tape records from; it is ahead of the
	// recording by exactly the recorded records.
	// r3dlint:guardedby mu
	gen *Generator
	// chunks is the recording, tapeChunkLen records per chunk.
	// r3dlint:guardedby mu
	chunks []*tapeChunk

	// The generator's state when the tape was made: where every
	// reader starts.
	seq    uint64
	pc     uint64
	regVal [isa.NumRegs]uint64
}

// tapeChunkLen is the number of records per chunk: one lock round trip
// per 4,096 replayed instructions.
const tapeChunkLen = 1 << 12

type tapeChunk [tapeChunkLen]record

// record is one instruction on a tape (24 bytes).
type record struct {
	// a is the address of a non-branch (0 if it is not a load or
	// store) and the PC of a branch; b is the result of a non-branch
	// and the target of a branch.
	a, b             uint64
	op               isa.OpClass
	dest, src1, src2 isa.Reg
	taken            bool
	// writes is the instruction's HasDest: its result is the value
	// later operands read from dest.
	writes bool
}

// NewTape returns a tape that records g's stream from g's current
// position. The tape owns g from then on: draw from it only through the
// tape's readers.
func NewTape(g *Generator) *Tape {
	return &Tape{gen: g, seq: g.seq, pc: g.pc, regVal: g.regVal}
}

// chunk returns chunk i, recording the stream up to its end first.
func (t *Tape) chunk(i int) *tapeChunk {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.chunks) <= i {
		c := new(tapeChunk)
		for j := range c {
			in := t.gen.Next()
			r := record{op: in.Op, dest: in.Dest, src1: in.Src1, src2: in.Src2, taken: in.Taken, writes: in.HasDest(), a: in.Addr, b: in.Value}
			if in.Op.IsBranch() {
				r.a, r.b = in.PC, in.Target
			}
			c[j] = r
		}
		t.chunks = append(t.chunks, c)
	}
	return t.chunks[i]
}

// Corrupt XORs mask into record i's first word — the address of a load
// or store, the PC of a branch — recording the stream up to i first. It
// models an upset in a stored stream, which a consumer that verifies
// against a fresh Generator must report. Call it only before any reader
// has read record i.
func (t *Tape) Corrupt(i uint64, mask uint64) {
	c := t.chunk(int(i / tapeChunkLen))
	t.mu.Lock()
	defer t.mu.Unlock()
	c[i%tapeChunkLen].a ^= mask
}

// Reader returns a reader that replays the tape from its start.
func (t *Tape) Reader() *TapeReader {
	return &TapeReader{t: t, ci: -1, i: tapeChunkLen, seq: t.seq, pc: t.pc, regVal: t.regVal}
}

// TapeReader replays a Tape; it yields, bit for bit, the stream the
// tape's generator yields (an ooo.InstSource). A reader is not safe for
// concurrent use, but any number of readers share one tape.
type TapeReader struct {
	t     *Tape
	chunk *tapeChunk
	ci, i int // chunk index, and record index within it
	seq   uint64
	pc    uint64
	// regVal is the register file the operand values are read from.
	regVal [isa.NumRegs]uint64
}

// Clone returns a reader at r's position that reads on independently
// of r.
func (r *TapeReader) Clone() *TapeReader {
	c := *r
	return &c
}

// Next returns the next instruction of the stream. The stream is
// infinite: past the end of the recording the tape records more.
func (r *TapeReader) Next() isa.Inst {
	if r.i == tapeChunkLen {
		r.ci++
		r.chunk, r.i = r.t.chunk(r.ci), 0
	}
	rec := &r.chunk[r.i]
	r.i++
	in := isa.Inst{Seq: r.seq, Op: rec.op, Dest: rec.dest, Src1: rec.src1, Src2: rec.src2, Taken: rec.taken,
		Src1Val: r.regVal[rec.src1], Src2Val: r.regVal[rec.src2]}
	r.seq++
	if rec.op.IsBranch() {
		in.PC, in.Target = rec.a, rec.b
		r.pc = rec.a + 4
		if rec.taken {
			r.pc = rec.b
		}
		return in
	}
	in.PC, in.Addr, in.Value = r.pc, rec.a, rec.b
	r.pc += 4
	if rec.writes {
		r.regVal[rec.dest] = rec.b
	}
	return in
}
