package trace

import (
	"sync"
	"testing"
	"unsafe"

	"r3d/internal/isa"
)

// diffInst names the first field in which got and want differ.
func diffInst(got, want isa.Inst) string {
	switch {
	case got.Seq != want.Seq:
		return "Seq"
	case got.PC != want.PC:
		return "PC"
	case got.Op != want.Op:
		return "Op"
	case got.Dest != want.Dest:
		return "Dest"
	case got.Src1 != want.Src1:
		return "Src1"
	case got.Src2 != want.Src2:
		return "Src2"
	case got.Addr != want.Addr:
		return "Addr"
	case got.Taken != want.Taken:
		return "Taken"
	case got.Target != want.Target:
		return "Target"
	case got.Value != want.Value:
		return "Value"
	case got.Src1Val != want.Src1Val:
		return "Src1Val"
	case got.Src2Val != want.Src2Val:
		return "Src2Val"
	}
	return ""
}

// TestTapeMatchesGenerator replays every profile's stream at two seeds
// and requires each instruction to equal a fresh generator's, field by
// field.
func TestTapeMatchesGenerator(t *testing.T) {
	const n = 50_000
	for _, b := range Suite() {
		for _, seed := range []int64{7, 42} {
			r := NewTape(MustGenerator(b.Profile, seed)).Reader()
			g := MustGenerator(b.Profile, seed)
			for i := 0; i < n; i++ {
				got, want := r.Next(), g.Next()
				if f := diffInst(got, want); f != "" {
					t.Fatalf("%s seed %d: instruction %d differs in %s:\n got %+v\nwant %+v", b.Profile.Name, seed, i, f, got, want)
				}
			}
		}
	}
}

// TestTapeStartsAtGeneratorPosition records a generator that has
// already run: the tape's stream is the generator's continuation.
func TestTapeStartsAtGeneratorPosition(t *testing.T) {
	b, _ := ByName("mcf")
	g, ref := MustGenerator(b.Profile, 3), MustGenerator(b.Profile, 3)
	for i := 0; i < 1234; i++ {
		g.Next()
		ref.Next()
	}
	r := NewTape(g).Reader()
	for i := 0; i < 3*tapeChunkLen; i++ {
		if got, want := r.Next(), ref.Next(); got != want {
			t.Fatalf("instruction %d after the start differs in %s", i, diffInst(got, want))
		}
	}
}

// TestTapeRecordsOnce checks that a second reader replays what the
// first recorded instead of recording more, and that records stay
// compact.
func TestTapeRecordsOnce(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size > 24 {
		t.Errorf("a tape record takes %d bytes, want at most 24", size)
	}
	b, _ := ByName("gzip")
	tp := NewTape(MustGenerator(b.Profile, 1))
	for _, r := range []*TapeReader{tp.Reader(), tp.Reader()} {
		for i := 0; i < tapeChunkLen+1; i++ {
			r.Next()
		}
		tp.mu.Lock()
		chunks := len(tp.chunks)
		tp.mu.Unlock()
		if chunks != 2 {
			t.Fatalf("tape holds %d chunks after reading %d records, want 2", chunks, tapeChunkLen+1)
		}
	}
}

// TestTapeConcurrentReaders replays one tape from several goroutines at
// once, each starting while the others are still recording, and checks
// every reader against one generator's stream. Run it under -race (make
// race-engine).
func TestTapeConcurrentReaders(t *testing.T) {
	const readers, n = 4, 3*tapeChunkLen + 17
	b, _ := ByName("swim")
	g := MustGenerator(b.Profile, 9)
	want := make([]isa.Inst, n)
	for i := range want {
		want[i] = g.Next()
	}
	tp := NewTape(MustGenerator(b.Profile, 9))
	var wg sync.WaitGroup
	errs := make([]string, readers)
	for k := 0; k < readers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := tp.Reader()
			for i := range want {
				if got := r.Next(); got != want[i] {
					errs[k] = diffInst(got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	for k, e := range errs {
		if e != "" {
			t.Errorf("reader %d: stream differs in %s", k, e)
		}
	}
}

// TestTapeCorrupt flips one record's address and leaves the rest of the
// stream alone.
func TestTapeCorrupt(t *testing.T) {
	b, _ := ByName("gzip")
	g := MustGenerator(b.Profile, 5)
	want := make([]isa.Inst, 2*tapeChunkLen)
	at := -1
	for i := range want {
		want[i] = g.Next()
		if at < 0 && i > tapeChunkLen && want[i].Op == isa.Load {
			at = i
		}
	}
	tp := NewTape(MustGenerator(b.Profile, 5))
	tp.Corrupt(uint64(at), 1<<40)
	r := tp.Reader()
	for i := range want {
		got := r.Next()
		if i == at {
			if got.Addr != want[i].Addr^1<<40 {
				t.Errorf("record %d: address %#x, want %#x", i, got.Addr, want[i].Addr^1<<40)
			}
			got.Addr = want[i].Addr
		}
		if f := diffInst(got, want[i]); f != "" {
			t.Fatalf("record %d differs in %s", i, f)
		}
	}
}
