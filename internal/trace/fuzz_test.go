package trace

import (
	"bytes"
	"testing"
)

// FuzzReader feeds arbitrary bytes to the trace-file reader and
// captures and replays generated streams. It requires that
//
//   - NewReader never panics, whatever the bytes;
//   - Next never panics while the input still holds a whole record the
//     header's count covers;
//   - a WriteTrace capture of up to 1,023 instructions of any profile
//     and seed replays the generator's stream.
//
// The seed corpus is a valid capture, the same capture truncated
// mid-record and one with a bit flipped in its header's count. `go
// test` runs the corpus; `make fuzz-smoke` fuzzes for a minute.
func FuzzReader(f *testing.F) {
	gzip, err := ByName("gzip")
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, MustGenerator(gzip.Profile, 1), 8); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	flipped := bytes.Clone(valid)
	flipped[8+len("gzip")+1] ^= 1 // count += 256
	f.Add(valid, int64(1), uint16(8))
	f.Add(valid[:len(valid)-recordBytes/2], int64(2), uint16(300))
	f.Add(flipped, int64(-3), uint16(0))

	suite := Suite()
	f.Fuzz(func(t *testing.T, data []byte, seed int64, n uint16) {
		if r, err := NewReader(bytes.NewReader(data)); err == nil {
			header := 4 + 2 + 2 + len(r.Name()) + 8
			whole := uint64(len(data)-header) / recordBytes
			for i := uint64(0); i < min(r.Count(), whole); i++ {
				r.Next()
			}
		}

		prof := suite[uint64(seed)%uint64(len(suite))].Profile
		n %= 1024
		var capture bytes.Buffer
		if err := WriteTrace(&capture, MustGenerator(prof, seed), uint64(n)); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&capture)
		if err != nil {
			t.Fatalf("%s seed %d: own capture rejected: %v", prof.Name, seed, err)
		}
		if r.Name() != prof.Name || r.Count() != uint64(n) {
			t.Fatalf("header %q/%d, want %q/%d", r.Name(), r.Count(), prof.Name, n)
		}
		g := MustGenerator(prof, seed)
		for i := 0; i < int(n); i++ {
			if got, want := r.Next(), g.Next(); got != want {
				t.Fatalf("%s seed %d: record %d differs in %s", prof.Name, seed, i, diffInst(got, want))
			}
		}
	})
}
