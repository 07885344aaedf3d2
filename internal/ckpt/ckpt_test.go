package ckpt

import (
	"encoding/json"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"r3d/internal/iofault"
)

type rec struct {
	ID string `json:"id"`
	N  int    `json:"n"`
}

var testMeta = Meta{Kind: "test-state", Fingerprint: "fp-1"}

func writeRecs(t *testing.T, path string, meta Meta, recs ...rec) {
	t.Helper()
	if err := WriteFile(iofault.OS(), path, meta, recs); err != nil {
		t.Fatal(err)
	}
}

func load(path string, want Meta) (*Records, error) {
	return LoadFrom(iofault.OS(), path, want)
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	writeRecs(t, path, testMeta, rec{ID: "a", N: 1}, rec{ID: "b", N: 2})

	recs, err := load(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	if recs.Len() != 2 || recs.Note != "" {
		t.Fatalf("loaded %d records (note %q), want 2 clean", recs.Len(), recs.Note)
	}
	var got rec
	if err := recs.Decode(1, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != "b" || got.N != 2 {
		t.Errorf("record 1 = %+v", got)
	}

	// Appending to the written file extends it.
	l, old, err := Open(iofault.OS(), path, testMeta, true)
	if err != nil {
		t.Fatal(err)
	}
	if old.Len() != 2 || old.Note != "" {
		t.Fatalf("resumed %d records (note %q), want 2 clean", old.Len(), old.Note)
	}
	if err := l.Append(rec{ID: "c", N: 3}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if recs, err = load(path, testMeta); err != nil || recs.Len() != 3 {
		t.Fatalf("after one append: %v records, err %v; want 3", recs.Len(), err)
	}
}

func TestMissingFileIsNotExist(t *testing.T) {
	_, err := load(filepath.Join(t.TempDir(), "absent.ckpt"), testMeta)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v, want fs.ErrNotExist", err)
	}
}

func TestForeignMetaIsMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	writeRecs(t, path, testMeta, rec{ID: "a"})

	var mm *MismatchError
	if _, err := load(path, Meta{Kind: "test-state", Fingerprint: "fp-other"}); !errors.As(err, &mm) || mm.Field != "fingerprint" {
		t.Errorf("foreign fingerprint: %v", err)
	}
	if _, err := load(path, Meta{Kind: "other-kind", Fingerprint: "fp-1"}); !errors.As(err, &mm) || mm.Field != "kind" {
		t.Errorf("foreign kind: %v", err)
	}
	// Resuming a foreign log is refused and leaves the file as it was.
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(iofault.OS(), path, Meta{Kind: "test-state", Fingerprint: "fp-other"}, true); !errors.As(err, &mm) {
		t.Errorf("resume on mismatch: %v, want MismatchError", err)
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(before) {
		t.Errorf("refused resume changed the file (err %v)", err)
	}
}

// TestCorruptionIsDetected damages a written log: an unreadable header
// is a CorruptError, and damage past it drops the damaged record and
// everything after it with a note.
func TestCorruptionIsDetected(t *testing.T) {
	cases := []struct {
		name   string
		damage func(lines []string) string
		kept   int // records left; -1 wants a CorruptError
		note   string
	}{
		{"truncated-header", func(lines []string) string {
			return lines[0][:len(lines[0])/2] // partial first line, no newline
		}, -1, ""},
		{"flipped-record-byte", func(lines []string) string {
			lines[1] = strings.Replace(lines[1], `"id":"a"`, `"id":"x"`, 1)
			return strings.Join(lines, "\n") + "\n"
		}, 0, "checksum-failing record"},
		{"torn-last-record", func(lines []string) string {
			return strings.Join(lines[:2], "\n") + "\n" + lines[2][:10]
		}, 1, "torn record"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "state.ckpt")
			writeRecs(t, path, testMeta, rec{ID: "a", N: 1}, rec{ID: "b", N: 2})
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
			if err := os.WriteFile(path, []byte(tc.damage(lines)), 0o644); err != nil {
				t.Fatal(err)
			}
			recs, err := load(path, testMeta)
			if tc.kept < 0 {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("damage %s undetected: %v", tc.name, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if recs.Len() != tc.kept || !strings.Contains(recs.Note, tc.note) {
				t.Fatalf("damage %s: kept %d records (note %q), want %d and a note on the %s", tc.name, recs.Len(), recs.Note, tc.kept, tc.note)
			}
		})
	}
}

// spaced marshals itself with insignificant whitespace and HTML
// characters, which json.Marshal compacts and escapes.
type spaced struct{}

func (spaced) MarshalJSON() ([]byte, error) {
	return []byte(`{ "a" : [1, 2 ,3], "tag" : "<b>&</b>" }`), nil
}

// TestRecordLinesMatchMarshal: record lines are formatted by hand, and
// every line must be what json.Marshal gives for it, including records
// whose JSON holds HTML characters, non-ASCII text, line separators and
// nested objects, whether WriteFile or Append wrote them.
func TestRecordLinesMatchMarshal(t *testing.T) {
	recs := []any{
		rec{ID: "<script>alert('x') && y</script>", N: -1},
		rec{ID: "Grüße, 温度 85 °C, \u2028\u2029 and \x01", N: 1 << 40},
		map[string]any{"outer": map[string]any{"inner": []any{1.5, "a&b", nil, true}, "z": map[string]int{"k": 1}}},
		spaced{},
		[]string{},
	}
	meta := Meta{Kind: "kind <&>", Fingerprint: "fp \u00e9"}
	marshal := func(v any) string {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	want := []string{marshal(header{Magic: magic, Version: version, Kind: meta.Kind, Fingerprint: meta.Fingerprint})}
	for _, r := range recs {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, marshal(record{CRC: crcHex(crc32.ChecksumIEEE(data)), Data: data}))
	}

	dir := t.TempDir()
	whole := filepath.Join(dir, "whole.ckpt")
	if err := WriteFile(iofault.OS(), whole, meta, recs); err != nil {
		t.Fatal(err)
	}
	appended := filepath.Join(dir, "appended.ckpt")
	l, _, err := Open(iofault.OS(), appended, meta, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{whole, appended} {
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(file), "\n")
		if last := lines[len(lines)-1]; last != "" {
			t.Fatalf("%s ends in an unterminated line %q", path, last)
		}
		lines = lines[:len(lines)-1]
		if len(lines) != len(want) {
			t.Fatalf("%s: %d lines, want %d", path, len(lines), len(want))
		}
		for i := range want {
			if lines[i] != want[i] {
				t.Errorf("%s line %d:\n got %q\nwant %q", path, i, lines[i], want[i])
			}
		}
		loaded, err := load(path, meta)
		if err != nil {
			t.Fatal(err)
		}
		var got rec
		if err := loaded.Decode(0, &got); err != nil || got != recs[0] {
			t.Errorf("%s record 0 = %+v (%v), want %+v", path, got, err, recs[0])
		}
	}
}
