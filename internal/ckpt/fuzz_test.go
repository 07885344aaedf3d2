package ckpt

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"testing"

	"r3d/internal/iofault"
)

var fuzzMeta = Meta{Kind: "fuzz", Fingerprint: "fp"}

// faultedLogs returns the bytes three appends leave in a new log under
// each of the faults that damage what a write lands: short writes,
// ENOSPC after a prefix, and bit flips. Retries exhausted on the last
// append leave a torn tail.
func faultedLogs(f *testing.F) [][]byte {
	var out [][]byte
	for _, sched := range []iofault.Schedule{
		{ShortWrite: 0.5},
		{ENOSPC: 0.5},
		{BitFlip: 0.5},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			sched.Seed = seed
			m := iofault.NewMemFS()
			if l, _, err := Open(iofault.NewFaultFS(m, sched, nil), "/d/log", fuzzMeta, false); err == nil {
				for i := 0; i < 3; i++ {
					_ = l.Append(rec{ID: "faulted", N: i}) // the damage is the seed
				}
			}
			data, err := m.ReadFile("/d/log")
			if err != nil {
				f.Fatal(err)
			}
			out = append(out, data)
		}
	}
	return out
}

// FuzzLoad feeds arbitrary file bytes to the one loader. LoadFrom and a
// resuming Open must not panic and must agree; they return only records
// whose CRC holds, in file order; and after a resuming Open and one
// Append, a reload returns the recovered records plus the new one.
func FuzzLoad(f *testing.F) {
	clean := iofault.NewMemFS()
	if err := WriteFile(clean, "/d/log", fuzzMeta, []rec{{ID: "a", N: 1}, {ID: "b", N: 2}, {ID: "c", N: 3}}); err != nil {
		f.Fatal(err)
	}
	log, err := clean.ReadFile("/d/log")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	f.Add([]byte{})
	f.Add([]byte("not a log\n{\"crc\":"))
	for _, data := range faultedLogs(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m := iofault.NewMemFS()
		file, err := m.OpenFile("/d/log", os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := file.Write(data); err != nil {
			t.Fatal(err)
		}

		loaded, lerr := LoadFrom(m, "/d/log", fuzzMeta)
		l, opened, oerr := Open(m, "/d/log", fuzzMeta, true)
		switch {
		case len(data) == 0:
			if oerr != nil || opened.Len() != 0 {
				t.Fatalf("resuming an empty file: %v, want a fresh log", oerr)
			}
		case (lerr == nil) != (oerr == nil):
			t.Fatalf("LoadFrom and Open disagree: %v vs %v", lerr, oerr)
		case lerr != nil:
			var ce *CorruptError
			var mm *MismatchError
			if !errors.As(lerr, &ce) && !errors.As(lerr, &mm) {
				t.Fatalf("load error %v is neither corrupt nor mismatch", lerr)
			}
			return
		default:
			if loaded.Len() != opened.Len() || loaded.Note != opened.Note {
				t.Fatalf("LoadFrom kept %d records (%q), Open %d (%q)", loaded.Len(), loaded.Note, opened.Len(), opened.Note)
			}
			lines := bytes.Split(data, []byte{'\n'})
			for i, got := range loaded.data {
				var r record
				if json.Unmarshal(lines[i+1], &r) != nil || !bytes.Equal(r.Data, got) || crcHex(crc32.ChecksumIEEE(got)) != r.CRC {
					t.Fatalf("record %d %q is not line %d's CRC-checked data %q", i, got, i+1, lines[i+1])
				}
				if !bytes.Equal(opened.data[i], got) {
					t.Fatalf("Open's record %d differs from LoadFrom's", i)
				}
			}
		}

		next := rec{ID: "appended", N: opened.Len()}
		if err := l.Append(next); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		reloaded, err := LoadFrom(m, "/d/log", fuzzMeta)
		if err != nil {
			t.Fatalf("reload after append: %v", err)
		}
		if reloaded.Len() != opened.Len()+1 || reloaded.Note != "" {
			t.Fatalf("reload kept %d records (note %q), want the %d recovered plus the new one", reloaded.Len(), reloaded.Note, opened.Len())
		}
		for i := range opened.data {
			if !bytes.Equal(reloaded.data[i], opened.data[i]) {
				t.Fatalf("reload record %d differs from the recovered one", i)
			}
		}
		var last rec
		if err := reloaded.Decode(opened.Len(), &last); err != nil || last != next {
			t.Fatalf("appended record reloads as %+v (%v), want %+v", last, err, next)
		}
	})
}
