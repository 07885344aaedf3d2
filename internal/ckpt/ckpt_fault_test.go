package ckpt

import (
	"errors"
	"testing"

	"r3d/internal/backoff"
	"r3d/internal/iofault"
)

func writeVals(fsys iofault.FS, path string, meta Meta, vals ...string) error {
	recs := make([]map[string]string, len(vals))
	for i, v := range vals {
		recs[i] = map[string]string{"v": v}
	}
	return WriteFile(fsys, path, meta, recs)
}

// TestCommitToMemFSSurvivesCrash: what WriteFile installed, and what a
// log's Sync covered, survive a machine crash, the directory entry of a
// freshly created log included.
func TestCommitToMemFSSurvivesCrash(t *testing.T) {
	m := iofault.NewMemFS()
	meta := Meta{Kind: "k", Fingerprint: "f"}
	if err := writeVals(m, "/d/snap", meta, "a", "b"); err != nil {
		t.Fatalf("write: %v", err)
	}
	l, _, err := Open(m, "/d/log", meta, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"a", "b", "c"} {
		if err := l.Append(map[string]string{"v": v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	for path, want := range map[string]int{"/d/snap": 2, "/d/log": 3} {
		recs, err := LoadFrom(m, path, meta)
		if err != nil {
			t.Fatalf("load %s after crash: %v", path, err)
		}
		if recs.Len() != want || recs.Note != "" {
			t.Fatalf("%s: %d records (note %q), want %d", path, recs.Len(), recs.Note, want)
		}
	}
}

func TestCommitToSurfacesPersistentDirSyncFailure(t *testing.T) {
	m := iofault.NewMemFS()
	meta := Meta{Kind: "k", Fingerprint: "f"}
	// A permanent write cliff from the first write-like operation must
	// surface as an error, never as a write that only looks durable.
	ffs := iofault.NewFaultFS(m, iofault.Schedule{Seed: 1, FailWritesFrom: 1}, nil)
	err := writeVals(ffs, "/d/snap", meta, "a")
	if err == nil {
		t.Fatal("write against a dead device should fail")
	}
	var ie *iofault.Error
	if !errors.As(err, &ie) || ie.Transient() {
		t.Fatalf("error = %v, want permanent iofault.Error", err)
	}
}

// flakyDirFS fails its first fails directory syncs transiently.
type flakyDirFS struct {
	iofault.FS
	fails, calls int
}

func (f *flakyDirFS) SyncDir(dir string) error {
	f.calls++
	if f.calls <= f.fails {
		return &iofault.Error{Op: "sync-dir", Path: dir, Kind: iofault.KindWriteErr, Class: iofault.ClassTransient}
	}
	return f.FS.SyncDir(dir)
}

// TestCommitToRetriesTransientDirSync: a transient directory-sync
// failure after the rename is retried in-line, by WriteFile and by a
// new log's first Sync alike.
func TestCommitToRetriesTransientDirSync(t *testing.T) {
	meta := Meta{Kind: "k", Fingerprint: "f"}
	fsys := &flakyDirFS{FS: iofault.NewMemFS(), fails: 2}
	if err := writeVals(fsys, "/d/snap", meta, "a"); err != nil || fsys.calls != 3 {
		t.Fatalf("WriteFile: err=%v after %d dir syncs, want the failures absorbed on attempt 3", err, fsys.calls)
	}
	fsys = &flakyDirFS{FS: iofault.NewMemFS(), fails: 2}
	l, _, err := Open(fsys, "/d/log", meta, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil || fsys.calls != 3 {
		t.Fatalf("Sync: err=%v after %d dir syncs, want the failures absorbed on attempt 3", err, fsys.calls)
	}
	if err := l.Sync(); err != nil || fsys.calls != 3 {
		t.Fatalf("second Sync: err=%v, %d dir syncs; only the first Sync after create syncs the directory", err, fsys.calls)
	}
}

// TestLoadFromDetectsBitFlip: a bit flipped on its way to disk is
// never served. A flip in the header refuses the file; one in a record
// drops that record and the rest with a note; a flip that changes no
// meaning (JSON keys match case-insensitively) loads the values as
// written.
func TestLoadFromDetectsBitFlip(t *testing.T) {
	meta := Meta{Kind: "k", Fingerprint: "f"}
	vals := []string{"aaaaaaaaaa", "bbbbbbbbbb"}
	clean := iofault.NewMemFS()
	if err := writeVals(clean, "/d/snap", meta, vals...); err != nil {
		t.Fatal(err)
	}
	want, err := clean.ReadFile("/d/snap")
	if err != nil {
		t.Fatal(err)
	}
	m := iofault.NewMemFS()
	ffs := iofault.NewFaultFS(m, iofault.Schedule{Seed: 3, BitFlip: 0.5}, nil)
	flipped := 0
	for i := 0; i < 20; i++ {
		if err := writeVals(ffs, "/d/snap", meta, vals...); err != nil {
			continue
		}
		got, err := m.ReadFile("/d/snap")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) == string(want) {
			continue
		}
		flipped++
		recs, err := LoadFrom(m, "/d/snap", meta)
		var ce *CorruptError
		var mm *MismatchError
		if errors.As(err, &ce) || errors.As(err, &mm) {
			continue
		}
		if err != nil {
			t.Fatalf("bit-flipped file: %v, want CorruptError or MismatchError", err)
		}
		if recs.Len() < len(vals) && recs.Note == "" {
			t.Fatalf("dropped %d records without a note", len(vals)-recs.Len())
		}
		for i := 0; i < recs.Len(); i++ {
			var v map[string]string
			if err := recs.Decode(i, &v); err != nil || v["v"] != vals[i] {
				t.Fatalf("record %d served as %v (%v), want %q", i, v, err, vals[i])
			}
		}
	}
	if flipped == 0 {
		t.Skip("schedule never flipped a bit inside a written file")
	}
}

func TestCommitToRecoversViaCallerRetry(t *testing.T) {
	// The pattern the daemon uses: the whole write wrapped in
	// backoff.Retry against transient write faults.
	m := iofault.NewMemFS()
	meta := Meta{Kind: "k", Fingerprint: "f"}
	ffs := iofault.NewFaultFS(m, iofault.Schedule{Seed: 5, WriteErr: 0.3, RenameErr: 0.2}, nil)
	err := backoff.Retry(backoff.Policy{Attempts: 25}, nil, func() error {
		return writeVals(ffs, "/d/snap", meta, "a", "b", "c")
	})
	if err != nil {
		t.Fatalf("retried write never landed: %v", err)
	}
	recs, err := LoadFrom(m, "/d/snap", meta)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if recs.Len() != 3 {
		t.Fatalf("records = %d, want 3", recs.Len())
	}
}
