// Package ckpt is the repo's crash-safe snapshot layer: checksummed,
// versioned checkpoint files with atomic temp-file + rename commits and
// automatic rollback to the last good snapshot.
//
// The paper's premise is a redundant checker that validates a leading
// core's results before they become architecturally visible; ckpt plays
// the same role for long-running campaigns and memoized experiment
// state. A checkpoint is never trusted on faith: every record carries a
// CRC32, the file carries a schema version plus a caller-supplied kind
// and fingerprint, and a trailer pins the record count and a running
// CRC — so a torn write, a flipped bit, or a file from a different grid
// or build is detected instead of silently merged.
//
// File format (line-oriented JSON, one record per line):
//
//	{"magic":"r3d-ckpt","version":1,"kind":K,"fingerprint":F}
//	{"crc":"<crc32 of data bytes>","data":<record JSON>}
//	...
//	{"magic":"r3d-ckpt-end","records":N,"crc":"<running crc32>"}
//
// Commit is atomic: the new snapshot is written to a temp file in the
// same directory, synced, then renamed over the target after rotating
// the previous snapshot to "<path>.prev". A crash at any instant leaves
// either the old snapshot, the new one, or (in the window between the
// two renames) only the .prev — and LoadLatest recovers the last good
// state in every case.
package ckpt

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"

	"r3d/internal/backoff"
	"r3d/internal/iofault"
)

const (
	magic        = "r3d-ckpt"
	trailerMagic = "r3d-ckpt-end"
	version      = 1
)

// Meta identifies what a checkpoint holds. Kind names the schema (e.g.
// "campaign-aggregate"); Fingerprint ties the file to the exact inputs
// it was derived from (a grid hash, a quality hash). Load refuses a
// file whose meta does not match, so restoring against the wrong world
// fails loudly instead of mixing record schemas.
type Meta struct {
	Kind        string
	Fingerprint string
}

// CorruptError reports a checkpoint that is structurally damaged: a
// torn tail, a checksum mismatch, a truncated header or trailer. A
// corrupt file is recoverable (roll back to .prev, or rebuild from the
// journal); a MismatchError is not.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("ckpt: %s is corrupt: %s", e.Path, e.Reason)
}

// MismatchError reports an intact checkpoint written for a different
// world: wrong kind, wrong fingerprint, or an unsupported format
// version. Rollback is deliberately not attempted — the .prev of a
// foreign file is just as foreign.
type MismatchError struct {
	Path  string
	Field string
	Got   string
	Want  string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("ckpt: %s has %s %q, want %q — it was written by an incompatible build or for different inputs", e.Path, e.Field, e.Got, e.Want)
}

type header struct {
	Magic       string `json:"magic"`
	Version     int    `json:"version"`
	Kind        string `json:"kind"`
	Fingerprint string `json:"fingerprint"`
}

type record struct {
	CRC  string          `json:"crc"`
	Data json.RawMessage `json:"data"`
}

type trailer struct {
	Magic   string `json:"magic"`
	Records int    `json:"records"`
	CRC     string `json:"crc"`
}

func crcHex(sum uint32) string { return string(appendCRC(nil, sum)) }

// appendCRC appends sum as eight lower-case hex digits.
func appendCRC(b []byte, sum uint32) []byte {
	const digits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, digits[sum>>uint(shift)&0xf])
	}
	return b
}

// PrevPath returns the rotation target for path — where Commit parks
// the previous snapshot and where LoadLatest looks during rollback.
func PrevPath(path string) string { return path + ".prev" }

// Writer accumulates records for one snapshot. Records are buffered in
// memory (snapshots are aggregate state, not bulk data) and written in
// a single atomic Commit.
type Writer struct {
	meta    Meta
	records []json.RawMessage
	running uint32 // crc32 chained over every record's data bytes
}

// NewWriter starts an empty snapshot with the given identity.
func NewWriter(meta Meta) *Writer {
	return &Writer{meta: meta}
}

// Append JSON-encodes v as the next record.
func (w *Writer) Append(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("ckpt: encode record: %w", err)
	}
	w.AppendEncoded(data)
	return nil
}

// AppendEncoded adds data, which must be json.Marshal's encoding of the
// record, as the next record, so a caller that keeps a record's bytes
// between snapshots encodes it once. CommitTo writes data as it is: it
// relies on json.Marshal's output being compact and HTML-escaped, which
// marshalling it again as a json.RawMessage would leave unchanged.
func (w *Writer) AppendEncoded(data []byte) {
	w.records = append(w.records, data)
	w.running = crc32.Update(w.running, crc32.IEEETable, data)
}

// Len returns the number of appended records.
func (w *Writer) Len() int { return len(w.records) }

// dirSyncRetry bounds the directory-fsync retry inside CommitTo. The
// sync is retried in-line (no sleeping — commit callers own pacing)
// because a transient storage fault there would otherwise void the
// durability promise the atomic rename just made.
var dirSyncRetry = backoff.Policy{Attempts: 3}

// Commit atomically installs the snapshot at path on the real
// filesystem. See CommitTo.
func (w *Writer) Commit(path string) error {
	return w.CommitTo(iofault.OS(), path)
}

// CommitTo atomically installs the snapshot at path on fsys: write to a
// temp file in the same directory, fsync, rotate any existing snapshot
// to PrevPath(path), then rename the temp file into place and fsync the
// directory. After CommitTo returns nil the new snapshot is durable and
// the previous one remains available for rollback.
func (w *Writer) CommitTo(fsys iofault.FS, path string) (err error) {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: create temp snapshot: %w", err)
	}
	defer func() {
		if err != nil {
			// Best-effort cleanup on the failure path; the commit error
			// already carries the cause.
			_ = tmp.Close()
			_ = fsys.Remove(tmp.Name())
		}
	}()

	snapshot, err := w.encode()
	if err != nil {
		return err
	}
	if _, err = tmp.Write(snapshot); err != nil {
		return fmt.Errorf("ckpt: write snapshot: %w", err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("ckpt: sync snapshot: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: close snapshot: %w", err)
	}

	// Rotate current → .prev, then temp → current. A kill between the
	// two renames leaves only the .prev; LoadLatest rolls back to it.
	if _, serr := fsys.Stat(path); serr == nil {
		if err = fsys.Rename(path, PrevPath(path)); err != nil {
			return fmt.Errorf("ckpt: rotate previous snapshot: %w", err)
		}
	}
	if err = fsys.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: install snapshot: %w", err)
	}
	// Make the renames durable. A failed directory sync means a crash
	// could resurrect the old snapshot (or lose this one entirely), so
	// it is classified, not dropped: transient faults are retried
	// in-line, and a persistent failure surfaces as a commit error —
	// the snapshot is visible but its durability is not yet promised.
	if err = backoff.Retry(dirSyncRetry, nil, func() error { return fsys.SyncDir(dir) }); err != nil {
		return fmt.Errorf("ckpt: sync snapshot directory: %w", err)
	}
	return nil
}

// encode returns the whole snapshot file: the header line, one line per
// record and the trailer line. A record line is formatted directly, and
// is byte for byte what json.Marshal(record{CRC, Data}) gives, because
// every record's data is already json.Marshal output.
func (w *Writer) encode() ([]byte, error) {
	hdr, err := json.Marshal(header{Magic: magic, Version: version, Kind: w.meta.Kind, Fingerprint: w.meta.Fingerprint})
	if err != nil {
		return nil, fmt.Errorf("ckpt: encode header: %w", err)
	}
	tr, err := json.Marshal(trailer{Magic: trailerMagic, Records: len(w.records), CRC: crcHex(w.running)})
	if err != nil {
		return nil, fmt.Errorf("ckpt: encode trailer: %w", err)
	}
	const recOpen, recData, recClose = `{"crc":"`, `","data":`, "}\n"
	size := len(hdr) + len(tr) + 2
	for _, data := range w.records {
		size += len(recOpen) + 8 + len(recData) + len(data) + len(recClose)
	}
	b := append(make([]byte, 0, size), hdr...)
	b = append(b, '\n')
	for _, data := range w.records {
		b = append(b, recOpen...)
		b = appendCRC(b, crc32.ChecksumIEEE(data))
		b = append(b, recData...)
		b = append(b, data...)
		b = append(b, recClose...)
	}
	b = append(b, tr...)
	return append(b, '\n'), nil
}

// Snapshot is a loaded, fully validated checkpoint.
type Snapshot struct {
	Meta    Meta
	records []json.RawMessage
}

// Len returns the number of records.
func (s *Snapshot) Len() int { return len(s.records) }

// Decode unmarshals record i into v.
func (s *Snapshot) Decode(i int, v any) error {
	if err := json.Unmarshal(s.records[i], v); err != nil {
		return fmt.Errorf("ckpt: decode record %d: %w", i, err)
	}
	return nil
}

// Load reads and validates the snapshot at path on the real
// filesystem. See LoadFrom.
func Load(path string, want Meta) (*Snapshot, error) {
	return LoadFrom(iofault.OS(), path, want)
}

// LoadFrom reads and validates the snapshot at path on fsys. It returns
// fs.ErrNotExist (wrapped) when no file exists, a *CorruptError for
// structural damage, and a *MismatchError for an intact file with the
// wrong kind, fingerprint or version.
func LoadFrom(fsys iofault.FS, path string, want Meta) (*Snapshot, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("ckpt: %s: %w", path, fs.ErrNotExist)
		}
		return nil, fmt.Errorf("ckpt: read %s: %w", path, err)
	}

	lines := splitLines(data)
	if len(lines) == 0 {
		return nil, &CorruptError{Path: path, Reason: "empty file"}
	}
	var hdr header
	if json.Unmarshal(lines[0], &hdr) != nil || hdr.Magic != magic {
		if len(lines[0]) == 0 || !complete(data, 0, lines) {
			return nil, &CorruptError{Path: path, Reason: "truncated header"}
		}
		return nil, &CorruptError{Path: path, Reason: "not a checkpoint file"}
	}
	if hdr.Version != version {
		return nil, &MismatchError{Path: path, Field: "format version", Got: fmt.Sprintf("%d", hdr.Version), Want: fmt.Sprintf("%d", version)}
	}
	if hdr.Kind != want.Kind {
		return nil, &MismatchError{Path: path, Field: "kind", Got: hdr.Kind, Want: want.Kind}
	}
	if hdr.Fingerprint != want.Fingerprint {
		return nil, &MismatchError{Path: path, Field: "fingerprint", Got: hdr.Fingerprint, Want: want.Fingerprint}
	}

	if len(lines) < 2 {
		return nil, &CorruptError{Path: path, Reason: "missing trailer (torn write)"}
	}
	var tr trailer
	last := lines[len(lines)-1]
	if json.Unmarshal(last, &tr) != nil || tr.Magic != trailerMagic {
		return nil, &CorruptError{Path: path, Reason: "missing trailer (torn write)"}
	}

	body := lines[1 : len(lines)-1]
	if len(body) != tr.Records {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("trailer declares %d records, found %d", tr.Records, len(body))}
	}
	var running uint32
	snap := &Snapshot{Meta: Meta{Kind: hdr.Kind, Fingerprint: hdr.Fingerprint}}
	for i, line := range body {
		var rec record
		if json.Unmarshal(line, &rec) != nil || rec.Data == nil {
			return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("record %d is not valid JSON", i)}
		}
		if got := crcHex(crc32.ChecksumIEEE(rec.Data)); got != rec.CRC {
			return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("record %d checksum mismatch (have %s, computed %s)", i, rec.CRC, got)}
		}
		running = crc32.Update(running, crc32.IEEETable, rec.Data)
		snap.records = append(snap.records, rec.Data)
	}
	if got := crcHex(running); got != tr.CRC {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("running checksum mismatch (trailer %s, computed %s)", tr.CRC, got)}
	}
	return snap, nil
}

// LoadLatest loads path, rolling back to PrevPath(path) when the
// primary snapshot is missing or corrupt. The returned note is empty
// when the primary loaded cleanly; otherwise it explains the rollback
// for surfacing to the user. Mismatch errors never roll back: a foreign
// snapshot's .prev is equally foreign, and silently restoring it would
// hide the incompatibility.
func LoadLatest(path string, want Meta) (*Snapshot, string, error) {
	return LoadLatestFrom(iofault.OS(), path, want)
}

// LoadLatestFrom is LoadLatest against an explicit filesystem.
func LoadLatestFrom(fsys iofault.FS, path string, want Meta) (*Snapshot, string, error) {
	snap, err := LoadFrom(fsys, path, want)
	if err == nil {
		return snap, "", nil
	}
	var corrupt *CorruptError
	recoverable := errors.As(err, &corrupt) || errors.Is(err, fs.ErrNotExist)
	if !recoverable {
		return nil, "", err
	}
	prev, perr := LoadFrom(fsys, PrevPath(path), want)
	if perr != nil {
		// No good previous snapshot: surface the primary's failure.
		return nil, "", err
	}
	reason := "missing (crash between snapshot rotation and install)"
	if corrupt != nil {
		reason = corrupt.Reason
	}
	return prev, fmt.Sprintf("ckpt: %s was %s; rolled back to previous snapshot %s", path, reason, PrevPath(path)), nil
}

// splitLines splits on '\n', dropping a trailing unterminated fragment
// only when it is empty (a well-formed file ends in a newline; a torn
// final line simply fails its JSON parse or leaves the trailer missing).
func splitLines(data []byte) [][]byte {
	var lines [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			lines = append(lines, data[start:i])
			start = i + 1
		}
	}
	if start < len(data) {
		lines = append(lines, data[start:]) // unterminated fragment
	}
	return lines
}

// complete reports whether line i of lines ends with a newline in data
// (i.e. was fully written).
func complete(data []byte, i int, lines [][]byte) bool {
	if i < len(lines)-1 {
		return true
	}
	return len(data) > 0 && data[len(data)-1] == '\n'
}
