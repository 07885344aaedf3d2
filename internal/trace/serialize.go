package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"r3d/internal/isa"
)

// Trace files let a generated instruction window be captured once and
// replayed byte-identically — useful for archiving the exact inputs
// behind a published figure, or for diffing simulator versions against a
// frozen workload. The format is a little-endian binary stream:
//
//	magic "R3DT" | version u16 | name len u16 | name | count u64 | records
//
// with one fixed-width 62-byte record per instruction.
const (
	traceMagic   = "R3DT"
	traceVersion = 1
	recordBytes  = 62
)

// WriteTrace captures n instructions from the generator to w.
func WriteTrace(w io.Writer, g *Generator, n uint64) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	name := g.Profile().Name
	if err := binary.Write(bw, binary.LittleEndian, uint16(traceVersion)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(len(name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(name); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, n); err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		in := g.Next()
		if err := writeInst(bw, &in); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeInst(w io.Writer, in *isa.Inst) error {
	var rec [recordBytes]byte
	binary.LittleEndian.PutUint64(rec[0:], in.Seq)
	binary.LittleEndian.PutUint64(rec[8:], in.PC)
	rec[16] = byte(in.Op)
	rec[17] = byte(in.Dest)
	rec[18] = byte(in.Src1)
	rec[19] = byte(in.Src2)
	if in.Taken {
		rec[20] = 1
	}
	binary.LittleEndian.PutUint64(rec[21:], in.Addr)
	binary.LittleEndian.PutUint64(rec[29:], in.Target)
	binary.LittleEndian.PutUint64(rec[37:], in.Value)
	binary.LittleEndian.PutUint64(rec[45:], in.Src1Val)
	binary.LittleEndian.PutUint64(rec[53:], in.Src2Val)
	// rec[61] reserved.
	_, err := w.Write(rec[:])
	return err
}

// Reader replays a captured trace as an ooo.InstSource; when the capture
// is exhausted Next panics (callers size their fetch budgets to the
// captured count, available via Count).
type Reader struct {
	r     *bufio.Reader
	name  string
	count uint64
	read  uint64
}

// NewReader validates the header and prepares to replay.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var version, nameLen uint16
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return nil, err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	var count uint64
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	return &Reader{r: br, name: string(name), count: count}, nil
}

// Name returns the captured workload's name.
func (t *Reader) Name() string { return t.name }

// Count returns the number of captured instructions.
func (t *Reader) Count() uint64 { return t.count }

// Next returns the next captured instruction. It panics past the end of
// the capture or on a truncated stream (trace files are trusted local
// artifacts; size fetch budgets with Count).
func (t *Reader) Next() isa.Inst {
	if t.read >= t.count {
		panic("trace: replay past end of capture")
	}
	var rec [recordBytes]byte
	if _, err := io.ReadFull(t.r, rec[:]); err != nil {
		panic(fmt.Sprintf("trace: truncated capture: %v", err))
	}
	t.read++
	return isa.Inst{
		Seq:     binary.LittleEndian.Uint64(rec[0:]),
		PC:      binary.LittleEndian.Uint64(rec[8:]),
		Op:      isa.OpClass(rec[16]),
		Dest:    isa.Reg(rec[17]),
		Src1:    isa.Reg(rec[18]),
		Src2:    isa.Reg(rec[19]),
		Taken:   rec[20] == 1,
		Addr:    binary.LittleEndian.Uint64(rec[21:]),
		Target:  binary.LittleEndian.Uint64(rec[29:]),
		Value:   binary.LittleEndian.Uint64(rec[37:]),
		Src1Val: binary.LittleEndian.Uint64(rec[45:]),
		Src2Val: binary.LittleEndian.Uint64(rec[53:]),
	}
}
