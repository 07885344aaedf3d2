// Package ckpt is the repo's one on-disk record format: a CRC-guarded,
// append-only log. The campaign journal, the daemon's job store and the
// session window caches are all logs.
//
// The paper's premise is a redundant checker that validates a leading
// core's results before they become architecturally visible; ckpt plays
// the same role for stored state. A record is never trusted on faith:
// each one carries a CRC32 of its bytes, and the file's header carries a
// format version plus a caller-supplied kind and fingerprint, so a torn
// write, a flipped bit, or a file from a different grid or build is
// detected instead of silently merged.
//
// File format (line-oriented JSON, one record per line, no trailer):
//
//	{"magic":"r3d-ckpt","version":2,"kind":K,"fingerprint":F}
//	{"crc":"<crc32 of data bytes>","data":<record JSON>}
//	...
//
// The recovery rule is the same for every log: its content is its
// longest valid prefix. Reading stops at the first record line that is
// unterminated, malformed or fails its CRC, and drops that line and
// everything after it with a note; opening the log to append truncates
// the file there. That loss is always affordable, because every store
// on this format can redo what it held: a campaign re-runs the dropped
// trials, and the job store and window caches recompute dropped entries
// on demand. A header that cannot be read, or that names another kind,
// fingerprint or format version, is refused and never truncated.
//
// A log grows by Append (with Sync for durability), or is replaced
// whole by WriteFile, which installs a new file atomically.
package ckpt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"r3d/internal/backoff"
	"r3d/internal/iofault"
)

const (
	magic   = "r3d-ckpt"
	version = 2
)

// Meta identifies what a log holds. Kind names the schema (e.g.
// "serve-jobstore"); Fingerprint ties the file to the exact inputs it
// was derived from (a grid hash, a quality hash). A file whose meta does
// not match is refused, so restoring against the wrong world fails
// loudly instead of mixing record schemas.
type Meta struct {
	Kind        string
	Fingerprint string
}

// CorruptError reports a file with no readable header: empty, torn
// inside its first line, or not a log at all. Damage after the header
// is not an error; it is dropped under the recovery rule.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("ckpt: %s is corrupt: %s", e.Path, e.Reason)
}

// MismatchError reports an intact log written for a different world:
// wrong kind, wrong fingerprint, or an unsupported format version.
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

func crcHex(sum uint32) string { return string(appendCRC(nil, sum)) }

// appendCRC appends sum as eight lower-case hex digits.
func appendCRC(b []byte, sum uint32) []byte {
	const digits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, digits[sum>>uint(shift)&0xf])
	}
	return b
}

// The framing of one record line around its data.
const (
	recOpen, recData, recClose = `{"crc":"`, `","data":`, "}\n"
	recFraming                 = len(recOpen) + 8 + len(recData) + len(recClose)
)

// appendRecord appends the line that frames data, which must be
// json.Marshal output. The line is byte for byte what
// json.Marshal(record{CRC, Data}) gives, because Marshal leaves data it
// already produced unchanged.
func appendRecord(b, data []byte) []byte {
	b = append(b, recOpen...)
	b = appendCRC(b, crc32.ChecksumIEEE(data))
	b = append(b, recData...)
	b = append(b, data...)
	return append(b, recClose...)
}

// headerLine returns meta's header line.
func headerLine(meta Meta) ([]byte, error) {
	hdr, err := json.Marshal(header{Magic: magic, Version: version, Kind: meta.Kind, Fingerprint: meta.Fingerprint})
	if err != nil {
		return nil, fmt.Errorf("ckpt: encode header: %w", err)
	}
	return append(hdr, '\n'), nil
}

// PrevPath returns path+".prev", where earlier builds kept a replaced
// file's previous generation. Nothing in this package writes there any
// more; the name stays for tools that account such files.
func PrevPath(path string) string { return path + ".prev" }

// Records is the valid prefix of a log.
type Records struct {
	// Note says what the load dropped past the valid prefix; it is
	// empty when every line of the file was valid.
	Note string
	data []json.RawMessage
}

// Len returns the number of records.
func (r *Records) Len() int { return len(r.data) }

// Decode unmarshals record i into v.
func (r *Records) Decode(i int, v any) error {
	if err := json.Unmarshal(r.data[i], v); err != nil {
		return fmt.Errorf("ckpt: decode record %d: %w", i, err)
	}
	return nil
}

// LoadFrom reads the log at path on fsys and returns its valid prefix.
// It returns fs.ErrNotExist (wrapped) when no file exists, a
// *CorruptError when the header cannot be read, and a *MismatchError
// for a header with the wrong kind, fingerprint or version.
func LoadFrom(fsys iofault.FS, path string, want Meta) (*Records, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("ckpt: %s: %w", path, fs.ErrNotExist)
		}
		return nil, fmt.Errorf("ckpt: read %s: %w", path, err)
	}
	recs, _, err := parse(path, data, want)
	return recs, err
}

// parse validates data as a log written for want, returning the
// records of its valid prefix and the prefix's length in bytes.
func parse(path string, data []byte, want Meta) (*Records, int64, error) {
	if len(data) == 0 {
		return nil, 0, &CorruptError{Path: path, Reason: "empty file"}
	}
	line, rest, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		return nil, 0, &CorruptError{Path: path, Reason: "truncated header"}
	}
	var hdr header
	if json.Unmarshal(line, &hdr) != nil || hdr.Magic != magic {
		return nil, 0, &CorruptError{Path: path, Reason: "not a checkpoint file"}
	}
	if hdr.Version != version {
		return nil, 0, &MismatchError{Path: path, Field: "format version", Got: fmt.Sprint(hdr.Version), Want: fmt.Sprint(version)}
	}
	if hdr.Kind != want.Kind {
		return nil, 0, &MismatchError{Path: path, Field: "kind", Got: hdr.Kind, Want: want.Kind}
	}
	if hdr.Fingerprint != want.Fingerprint {
		return nil, 0, &MismatchError{Path: path, Field: "fingerprint", Got: hdr.Fingerprint, Want: want.Fingerprint}
	}

	recs := &Records{}
	n := int64(len(line) + 1)
	for len(rest) > 0 {
		line, next, ok := bytes.Cut(rest, []byte{'\n'})
		if !ok {
			// Every record goes down with its newline in one write, so an
			// unterminated line was never a whole record.
			recs.Note = fmt.Sprintf("ckpt: %s ends in a torn record (%d bytes); dropped it", path, len(rest))
			break
		}
		var rec record
		if json.Unmarshal(line, &rec) != nil || rec.Data == nil {
			recs.Note = fmt.Sprintf("ckpt: %s has a malformed record at byte %d; dropped it and the %d bytes after it", path, n, len(next))
			break
		}
		if got := crcHex(crc32.ChecksumIEEE(rec.Data)); got != rec.CRC {
			recs.Note = fmt.Sprintf("ckpt: %s has a checksum-failing record at byte %d (stored %s, computed %s); dropped it and the %d bytes after it", path, n, rec.CRC, got, len(next))
			break
		}
		recs.data = append(recs.data, rec.Data)
		n += int64(len(line) + 1)
		rest = next
	}
	return recs, n, nil
}

// retry bounds the in-line retry of a log write, a truncation or a
// directory sync against transient storage faults. No sleeping: callers
// keep working while a write retries, and a fault schedule that
// outlasts three attempts is modelling a dead device, which must
// surface as an error.
var retry = backoff.Policy{Attempts: 3}

// Log is a log open for appending. It has no mutex: callers serialize
// its methods.
type Log struct {
	fsys    iofault.FS
	f       iofault.File
	n       int64 // bytes of the header and the records written whole
	torn    bool  // a failed write may have left bytes past n
	created bool  // Open created the file; its directory entry is not yet synced
}

// Open opens the log at path for appending records under meta.
//
// Without resume it creates the file, replacing any content, and
// writes the header. With resume it recovers an existing file: it keeps
// the valid prefix, truncates the rest, and returns the prefix's
// records with a note on what was dropped; a missing or empty file is
// created as without resume. A file whose header cannot be read is
// refused with a *CorruptError, and one written for another kind,
// fingerprint or format version with a *MismatchError.
func Open(fsys iofault.FS, path string, meta Meta, resume bool) (*Log, *Records, error) {
	l := &Log{fsys: fsys}
	if resume {
		data, err := fsys.ReadFile(path)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, nil, fmt.Errorf("ckpt: read %s: %w", path, err)
		}
		if len(data) > 0 {
			recs, n, err := parse(path, data, meta)
			if err != nil {
				return nil, nil, err
			}
			if l.f, err = fsys.OpenFile(path, os.O_WRONLY, 0o644); err != nil {
				return nil, nil, fmt.Errorf("ckpt: reopen %s: %w", path, err)
			}
			l.n = n
			if err := backoff.Retry(retry, nil, l.rewind); err != nil {
				_ = l.f.Close() // the truncation failure is the error worth reporting
				return nil, nil, fmt.Errorf("ckpt: recover %s: %w", path, err)
			}
			return l, recs, nil
		}
	}
	hdr, err := headerLine(meta)
	if err != nil {
		return nil, nil, err
	}
	if l.f, err = fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644); err != nil {
		return nil, nil, fmt.Errorf("ckpt: create %s: %w", path, err)
	}
	l.created = true
	if err := l.write(hdr); err != nil {
		_ = l.f.Close() // the write failure is the error worth reporting
		return nil, nil, err
	}
	return l, &Records{}, nil
}

// Append writes v's JSON encoding as the next record. A failed write is
// retried in-line against transient faults, each retry first truncating
// what the failed attempt left past the last whole record, so a record
// never glues onto a torn prefix. After an error the log stays usable:
// the next Append truncates first.
func (l *Log) Append(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("ckpt: encode record: %w", err)
	}
	return l.write(appendRecord(make([]byte, 0, recFraming+len(data)), data))
}

// write lands line after the last whole record, with the retry.
func (l *Log) write(line []byte) error {
	err := backoff.Retry(retry, nil, func() error {
		if l.torn {
			if err := l.rewind(); err != nil {
				return err
			}
		}
		if _, err := l.f.Write(line); err != nil {
			l.torn = true
			return err
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("ckpt: append to %s: %w", l.f.Name(), err)
	}
	l.n += int64(len(line))
	return nil
}

// rewind truncates the file to its last whole record and moves the
// write position there.
func (l *Log) rewind() error {
	if err := l.f.Truncate(l.n); err != nil {
		return fmt.Errorf("trim torn suffix: %w", err)
	}
	if _, err := l.f.Seek(l.n, io.SeekStart); err != nil {
		return fmt.Errorf("seek: %w", err)
	}
	l.torn = false
	return nil
}

// Sync makes every appended record durable. The first Sync after Open
// created the file also syncs its directory, so the file itself
// survives a crash.
func (l *Log) Sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("ckpt: sync %s: %w", l.f.Name(), err)
	}
	if l.created {
		if err := syncDir(l.fsys, filepath.Dir(l.f.Name())); err != nil {
			return err
		}
		l.created = false
	}
	return nil
}

// Close closes the file. It does not sync.
func (l *Log) Close() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("ckpt: close %s: %w", l.f.Name(), err)
	}
	return nil
}

// syncDir makes dir's entries durable, retrying transient faults: a
// failed directory sync means a crash could lose a file the caller has
// been told is durable.
func syncDir(fsys iofault.FS, dir string) error {
	if err := backoff.Retry(retry, nil, func() error { return fsys.SyncDir(dir) }); err != nil {
		return fmt.Errorf("ckpt: sync directory %s: %w", dir, err)
	}
	return nil
}

// WriteFile replaces the content of path with a log of recs under meta:
// it writes a temp file in the same directory, fsyncs it, renames it
// over path and fsyncs the directory. A crash at any instant leaves
// either the old file or the new one, and after WriteFile returns nil
// the new one is durable.
func WriteFile[T any](fsys iofault.FS, path string, meta Meta, recs []T) (err error) {
	hdr, err := headerLine(meta)
	if err != nil {
		return err
	}
	datas := make([][]byte, len(recs))
	size := len(hdr)
	for i := range recs {
		if datas[i], err = json.Marshal(recs[i]); err != nil {
			return fmt.Errorf("ckpt: encode record %d: %w", i, err)
		}
		size += recFraming + len(datas[i])
	}
	b := append(make([]byte, 0, size), hdr...)
	for _, data := range datas {
		b = appendRecord(b, data)
	}

	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: create temp file: %w", err)
	}
	defer func() {
		if err != nil {
			// Best-effort cleanup on the failure path; the write error
			// already carries the cause.
			_ = tmp.Close()
			_ = fsys.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(b); err != nil {
		return fmt.Errorf("ckpt: write %s: %w", tmp.Name(), err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("ckpt: sync %s: %w", tmp.Name(), err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: close %s: %w", tmp.Name(), err)
	}
	if err = fsys.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: install %s: %w", path, err)
	}
	return syncDir(fsys, dir)
}
