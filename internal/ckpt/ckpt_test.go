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
)

type rec struct {
	ID string `json:"id"`
	N  int    `json:"n"`
}

var testMeta = Meta{Kind: "test-state", Fingerprint: "fp-1"}

func commitSnapshot(t *testing.T, path string, meta Meta, recs ...rec) {
	t.Helper()
	w := NewWriter(meta)
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(path); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	commitSnapshot(t, path, testMeta, rec{ID: "a", N: 1}, rec{ID: "b", N: 2})

	snap, err := Load(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != 2 {
		t.Fatalf("loaded %d records, want 2", snap.Len())
	}
	var got rec
	if err := snap.Decode(1, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != "b" || got.N != 2 {
		t.Errorf("record 1 = %+v", got)
	}
}

func TestMissingFileIsNotExist(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "absent.ckpt"), testMeta)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v, want fs.ErrNotExist", err)
	}
}

func TestForeignMetaIsMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	commitSnapshot(t, path, testMeta, rec{ID: "a"})

	var mm *MismatchError
	if _, err := Load(path, Meta{Kind: "test-state", Fingerprint: "fp-other"}); !errors.As(err, &mm) || mm.Field != "fingerprint" {
		t.Errorf("foreign fingerprint: %v", err)
	}
	if _, err := Load(path, Meta{Kind: "other-kind", Fingerprint: "fp-1"}); !errors.As(err, &mm) || mm.Field != "kind" {
		t.Errorf("foreign kind: %v", err)
	}
	// A mismatch must not roll back to .prev.
	commitSnapshot(t, path, testMeta, rec{ID: "b"}) // rotates the first snapshot to .prev
	if _, _, err := LoadLatest(path, Meta{Kind: "test-state", Fingerprint: "fp-other"}); !errors.As(err, &mm) {
		t.Errorf("LoadLatest on mismatch: %v, want MismatchError", err)
	}
}

// corrupt helpers: each takes the on-disk bytes and damages them.
func TestCorruptionIsDetected(t *testing.T) {
	cases := []struct {
		name   string
		damage func(lines []string) []string
	}{
		{"truncated-header", func(lines []string) []string {
			return []string{lines[0][:len(lines[0])/2]} // partial first line, no newline
		}},
		{"flipped-record-byte", func(lines []string) []string {
			lines[1] = strings.Replace(lines[1], `"id":"a"`, `"id":"x"`, 1)
			return lines
		}},
		{"missing-trailer", func(lines []string) []string {
			return lines[:len(lines)-1]
		}},
		{"dropped-record", func(lines []string) []string {
			return append(lines[:1], lines[2:]...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "state.ckpt")
			commitSnapshot(t, path, testMeta, rec{ID: "a", N: 1}, rec{ID: "b", N: 2})
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
			out := strings.Join(tc.damage(lines), "\n")
			if tc.name != "truncated-header" {
				out += "\n"
			}
			if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
			var ce *CorruptError
			if _, err := Load(path, testMeta); !errors.As(err, &ce) {
				t.Fatalf("damage %s undetected: %v", tc.name, err)
			}
		})
	}
}

func TestLoadLatestRollsBackFromCorruptPrimary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	commitSnapshot(t, path, testMeta, rec{ID: "old", N: 1})
	commitSnapshot(t, path, testMeta, rec{ID: "new", N: 2}) // old → .prev

	// Corrupt the primary: the previous snapshot must be served.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, note, err := LoadLatest(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	if note == "" || !strings.Contains(note, "rolled back") {
		t.Errorf("rollback note missing: %q", note)
	}
	var got rec
	if err := snap.Decode(0, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != "old" {
		t.Errorf("rollback served %q, want the previous snapshot", got.ID)
	}
}

func TestLoadLatestRollsBackFromMissingPrimary(t *testing.T) {
	// The kill window between rotation and install: only .prev exists.
	path := filepath.Join(t.TempDir(), "state.ckpt")
	commitSnapshot(t, path, testMeta, rec{ID: "only", N: 7})
	if err := os.Rename(path, PrevPath(path)); err != nil {
		t.Fatal(err)
	}
	snap, note, err := LoadLatest(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	if note == "" {
		t.Error("rollback from missing primary must carry a note")
	}
	if snap.Len() != 1 {
		t.Errorf("rolled-back snapshot has %d records", snap.Len())
	}
}

func TestLoadLatestWithBothGoneIsNotExist(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	if _, _, err := LoadLatest(path, testMeta); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("no snapshots: %v, want fs.ErrNotExist", err)
	}
}

func TestCommitKeepsPreviousOnEverySuccession(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	for n := 1; n <= 3; n++ {
		commitSnapshot(t, path, testMeta, rec{ID: "gen", N: n})
	}
	cur, err := Load(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := Load(PrevPath(path), testMeta)
	if err != nil {
		t.Fatal(err)
	}
	var c, p rec
	if err := cur.Decode(0, &c); err != nil {
		t.Fatal(err)
	}
	if err := prev.Decode(0, &p); err != nil {
		t.Fatal(err)
	}
	if c.N != 3 || p.N != 2 {
		t.Errorf("generations: current %d, prev %d; want 3 and 2", c.N, p.N)
	}
}

// spaced marshals itself with insignificant whitespace and HTML
// characters, which json.Marshal compacts and escapes.
type spaced struct{}

func (spaced) MarshalJSON() ([]byte, error) {
	return []byte(`{ "a" : [1, 2 ,3], "tag" : "<b>&</b>" }`), nil
}

// TestRecordLinesMatchMarshal: the snapshot is formatted by hand, and
// every line must be what json.Marshal gives for it, including records
// whose JSON holds HTML characters, non-ASCII text, line separators and
// nested objects.
func TestRecordLinesMatchMarshal(t *testing.T) {
	recs := []any{
		rec{ID: "<script>alert('x') && y</script>", N: -1},
		rec{ID: "Grüße, 温度 85 °C, \u2028\u2029 and \x01", N: 1 << 40},
		map[string]any{"outer": map[string]any{"inner": []any{1.5, "a&b", nil, true}, "z": map[string]int{"k": 1}}},
		spaced{},
		[]string{},
	}
	w := NewWriter(Meta{Kind: "kind <&>", Fingerprint: "fp \u00e9"})
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	pre, err := json.Marshal(rec{ID: "pre-encoded", N: 2})
	if err != nil {
		t.Fatal(err)
	}
	w.AppendEncoded(pre)

	file, err := w.encode()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(file), "\n")
	if last := lines[len(lines)-1]; last != "" {
		t.Fatalf("snapshot ends in an unterminated line %q", last)
	}
	lines = lines[:len(lines)-1]
	if len(lines) != len(w.records)+2 {
		t.Fatalf("%d lines for %d records", len(lines), len(w.records))
	}
	marshal := func(v any) string {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	want := []string{marshal(header{Magic: magic, Version: version, Kind: w.meta.Kind, Fingerprint: w.meta.Fingerprint})}
	for _, data := range w.records {
		want = append(want, marshal(record{CRC: crcHex(crc32.ChecksumIEEE(data)), Data: data}))
	}
	want = append(want, marshal(trailer{Magic: trailerMagic, Records: len(w.records), CRC: crcHex(w.running)}))
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d:\n got %q\nwant %q", i, lines[i], want[i])
		}
	}

	path := filepath.Join(t.TempDir(), "state.ckpt")
	if err := w.Commit(path); err != nil {
		t.Fatal(err)
	}
	snap, err := Load(path, w.meta)
	if err != nil {
		t.Fatal(err)
	}
	var got rec
	if err := snap.Decode(0, &got); err != nil || got != recs[0] {
		t.Errorf("record 0 = %+v (%v), want %+v", got, err, recs[0])
	}
}
