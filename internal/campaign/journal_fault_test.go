package campaign

import (
	"bytes"
	"fmt"
	"io/fs"
	"strings"
	"testing"

	"r3d/internal/iofault"
)

// scriptedFS wraps an iofault.FS and fails specific file writes (1-based
// global write count) with a scripted fault, writing a prefix first.
// Unlike FaultFS's seeded schedule, the failure points are exact, which
// is what the torn-record tests need.
type scriptedFS struct {
	inner  iofault.FS
	writes int
	fail   map[int]scriptedFault
}

type scriptedFault struct {
	prefix int // bytes to land before failing
	kind   iofault.Kind
	class  iofault.Class
}

func (s *scriptedFS) OpenFile(name string, flag int, perm fs.FileMode) (iofault.File, error) {
	f, err := s.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &scriptedFile{fs: s, inner: f}, nil
}

func (s *scriptedFS) CreateTemp(dir, pattern string) (iofault.File, error) {
	f, err := s.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &scriptedFile{fs: s, inner: f}, nil
}

func (s *scriptedFS) ReadFile(name string) ([]byte, error)  { return s.inner.ReadFile(name) }
func (s *scriptedFS) Rename(o, n string) error              { return s.inner.Rename(o, n) }
func (s *scriptedFS) Remove(name string) error              { return s.inner.Remove(name) }
func (s *scriptedFS) Stat(name string) (fs.FileInfo, error) { return s.inner.Stat(name) }
func (s *scriptedFS) SyncDir(dir string) error              { return s.inner.SyncDir(dir) }

type scriptedFile struct {
	fs    *scriptedFS
	inner iofault.File
}

func (f *scriptedFile) Write(p []byte) (int, error) {
	f.fs.writes++
	if sf, ok := f.fs.fail[f.fs.writes]; ok {
		n := sf.prefix
		if n > len(p) {
			n = len(p)
		}
		if n > 0 {
			if wrote, err := f.inner.Write(p[:n]); err != nil {
				return wrote, err
			}
		}
		return n, &iofault.Error{Op: "write", Path: f.inner.Name(), Kind: sf.kind, Class: sf.class}
	}
	return f.inner.Write(p)
}

func (f *scriptedFile) Truncate(size int64) error             { return f.inner.Truncate(size) }
func (f *scriptedFile) Seek(off int64, wh int) (int64, error) { return f.inner.Seek(off, wh) }
func (f *scriptedFile) Sync() error                           { return f.inner.Sync() }
func (f *scriptedFile) Close() error                          { return f.inner.Close() }
func (f *scriptedFile) Name() string                          { return f.inner.Name() }

func journalOutcome(i int) TrialOutcome {
	return TrialOutcome{ID: fmt.Sprintf("t%d", i), Status: StatusOK, Attempts: 1}
}

// writeJournal appends count outcomes to a fresh journal on fsys and
// returns the file bytes.
func writeJournal(t *testing.T, fsys iofault.FS, path string, count int) []byte {
	t.Helper()
	jr, _, _, err := openJournal(fsys, path, "fp", false)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	for i := 1; i <= count; i++ {
		jr.append(journalOutcome(i))
	}
	if err := jr.close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	return data
}

// TestJournalAppendRetriesTransientShortWrite: a transient short write
// mid-record is absorbed in-line — the retry truncates the torn prefix
// and rewrites, so the final file is byte-identical to a fault-free one.
func TestJournalAppendRetriesTransientShortWrite(t *testing.T) {
	baseline := writeJournal(t, iofault.NewMemFS(), "/d/j", 3)

	m := iofault.NewMemFS()
	// Write 1 is the header; writes 2..4 are records. Fail record t2's
	// write (global write 3) once, half-written, transiently.
	sfs := &scriptedFS{inner: m, fail: map[int]scriptedFault{
		3: {prefix: 17, kind: iofault.KindShortWrite, class: iofault.ClassTransient},
	}}
	got := writeJournal(t, sfs, "/d/j", 3)
	if !bytes.Equal(got, baseline) {
		t.Fatalf("retried journal differs from fault-free baseline:\n%q\nvs\n%q", got, baseline)
	}
}

// TestJournalENOSPCMidRecordTruncatesAndResumesByteIdentical: every
// retry of the final record fails with ENOSPC after a prefix lands (a
// full device), the error sticks, and the process "dies" with a torn
// final record on disk. Resume must truncate the torn suffix, re-run
// only that trial, and converge to the fault-free bytes.
func TestJournalENOSPCMidRecordTruncatesAndResumesByteIdentical(t *testing.T) {
	for _, kind := range []iofault.Kind{iofault.KindENOSPC, iofault.KindShortWrite} {
		t.Run(string(kind), func(t *testing.T) {
			baseline := writeJournal(t, iofault.NewMemFS(), "/d/j", 3)

			m := iofault.NewMemFS()
			// Record t3 is global write 4; all three attempts (writes 4,
			// 5, 6 — the retries truncate between them) land a prefix and
			// fail, so the journal error sticks with a torn tail on disk.
			fail := map[int]scriptedFault{}
			for w := 4; w <= 6; w++ {
				fail[w] = scriptedFault{prefix: 11, kind: kind, class: iofault.ClassTransient}
			}
			sfs := &scriptedFS{inner: m, fail: fail}
			jr, _, _, err := openJournal(sfs, "/d/j", "fp", false)
			if err != nil {
				t.Fatalf("open journal: %v", err)
			}
			jr.append(journalOutcome(1))
			jr.append(journalOutcome(2))
			jr.append(journalOutcome(3)) // exhausts retries, sticks
			if err := jr.close(); err == nil {
				t.Fatal("exhausted journal append should surface at close")
			}

			// The file must end in exactly one torn record fragment.
			data, err := m.ReadFile("/d/j")
			if err != nil {
				t.Fatalf("read torn journal: %v", err)
			}
			if !bytes.HasPrefix(baseline, data[:len(data)-11]) {
				t.Fatalf("torn journal prefix diverged from baseline")
			}

			// Resume: the torn suffix truncates, t3 re-runs, bytes converge.
			jr2, done, notes, err := openJournal(m, "/d/j", "fp", true)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if len(done) != 2 {
				t.Fatalf("resume recovered %d outcomes, want 2", len(done))
			}
			if len(notes) == 0 || !strings.Contains(strings.Join(notes, "\n"), "torn record") {
				t.Fatalf("resume notes do not mention the torn record: %v", notes)
			}
			jr2.append(journalOutcome(3))
			if err := jr2.close(); err != nil {
				t.Fatalf("close resumed journal: %v", err)
			}
			got, _ := m.ReadFile("/d/j")
			if !bytes.Equal(got, baseline) {
				t.Fatalf("resumed journal differs from fault-free baseline:\n%q\nvs\n%q", got, baseline)
			}
		})
	}
}

// TestJournalPermanentWriteFaultSticksImmediately: a permanent fault
// must not burn the retry budget — the append stops on attempt one.
func TestJournalPermanentWriteFaultSticksImmediately(t *testing.T) {
	m := iofault.NewMemFS()
	sfs := &scriptedFS{inner: m, fail: map[int]scriptedFault{
		2: {prefix: 0, kind: iofault.KindWriteErr, class: iofault.ClassPermanent},
	}}
	jr, _, _, err := openJournal(sfs, "/d/j", "fp", false)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	jr.append(journalOutcome(1))
	if err := jr.close(); err == nil {
		t.Fatal("permanent fault should stick")
	}
	if sfs.writes != 2 {
		t.Fatalf("permanent fault consumed %d writes, want 2 (header + one attempt)", sfs.writes)
	}
}

// TestJournalCrashKeepsSyncedOutcomes: a power cut mid-campaign loses at
// most the outcomes appended since the journal last synced. The journal
// syncs its first record (with the file's directory entry) and then
// whenever syncEvery records are unsynced, so a crash after the first
// append keeps that record, one after syncEvery appends still keeps only
// the first (the most a crash loses is syncEvery-1), and one after 40
// appends keeps the first 33.
func TestJournalCrashKeepsSyncedOutcomes(t *testing.T) {
	for _, tc := range []struct{ appends, keep int }{{1, 1}, {syncEvery, 1}, {40, 1 + syncEvery}} {
		m := iofault.NewMemFS()
		jr, _, _, err := openJournal(m, "/d/j", "fp", false)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= tc.appends; i++ {
			jr.append(journalOutcome(i))
		}
		m.Crash()
		_, done, _, err := openJournal(m, "/d/j", "fp", true)
		if err != nil {
			t.Fatalf("%d appends: resume after the crash: %v", tc.appends, err)
		}
		if len(done) != tc.keep {
			t.Fatalf("%d appends: the crash kept %d outcomes, want %d", tc.appends, len(done), tc.keep)
		}
		for i, out := range done {
			if out.ID != journalOutcome(i+1).ID {
				t.Fatalf("%d appends: kept outcome %d is %s, want %s", tc.appends, i, out.ID, journalOutcome(i+1).ID)
			}
		}
	}
}
