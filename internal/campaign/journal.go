package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"sync"

	"r3d/internal/backoff"
	"r3d/internal/iofault"
)

// The journal is an append-only JSONL file: a header line identifying
// the grid, then one CRC32-guarded TrialOutcome record per completed
// trial in completion order. Because every line is written atomically
// under a mutex, a campaign killed at any point leaves at worst one
// torn final line; resume truncates the file back to its last valid
// record, re-runs only the trials without an outcome, and the aggregate
// (ordered by trial ID, not journal order) is byte-identical to an
// uninterrupted run. The per-record checksum extends that guarantee
// from torn tails to corruption anywhere: a record whose payload no
// longer matches its CRC — and everything after it, whose framing can
// no longer be trusted — is discarded and its trials re-run.

const (
	journalMagic   = "r3d-campaign-journal"
	journalVersion = 2
	// journalSchema names the record schema this build reads and
	// writes. It is hashed into the grid fingerprint, so a resume
	// against a journal from an incompatible build fails the
	// fingerprint check loudly even before the explicit version check —
	// record schemas are never mixed within one file.
	journalSchema = "r3d-campaign-journal/v2"
)

type journalHeader struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	Schema  string `json:"schema"`
	// Fingerprint hashes the canonical encoding of the full trial grid
	// together with the journal schema: resuming under a different grid
	// or an incompatible build is an error, not a silent partial re-run.
	Fingerprint string `json:"fingerprint"`
}

// journalRecord wraps one outcome with a CRC32 over its exact payload
// bytes, so corruption inside the file body is detected, not replayed.
type journalRecord struct {
	CRC     string          `json:"crc"`
	Outcome json.RawMessage `json:"outcome"`
}

// gridFingerprint hashes the journal schema plus the canonical JSON
// encoding of the specs. Bumping journalSchema therefore changes every
// fingerprint, which is exactly the loud failure an incompatible resume
// needs.
func gridFingerprint(specs []TrialSpec) (string, error) {
	enc, err := json.Marshal(specs)
	if err != nil {
		return "", fmt.Errorf("campaign: fingerprint grid: %w", err)
	}
	h := fnv.New64a()
	if _, err := h.Write([]byte(journalSchema + "\n")); err != nil {
		return "", err
	}
	if _, err := h.Write(enc); err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// journalRetry bounds the in-line retry of one journal append against
// transient storage faults. No sleeping: trials keep completing while
// the append retries, and a chaos schedule that outlasts three
// attempts is modelling a dead device, which must stick as an error.
var journalRetry = backoff.Policy{Attempts: 3}

// journal is the open journal file. Workers append to it directly; mu
// serializes them, because concurrent appends must not interleave and a
// retried append truncates the file back to n.
type journal struct {
	mu sync.Mutex
	f  iofault.File // handle is immutable after openJournal; writes serialize on mu
	// r3dlint:guardedby mu
	n int64 // bytes committed (header + intact records)
	// r3dlint:guardedby mu
	dirty bool // last append may have left a torn suffix past n
	// r3dlint:guardedby mu
	err error // first append error, surfaced at close
}

// openJournal prepares the journal at path. Without resume the file is
// truncated and a fresh header written. With resume an existing file is
// validated against the grid fingerprint, truncated past any torn or
// corrupt suffix, and its outcomes returned in journal order; a missing
// or empty file degrades to a fresh start so resuming is safe on the
// first run too.
func openJournal(fsys iofault.FS, path string, fingerprint string, resume bool) (*journal, []TrialOutcome, []string, error) {
	if resume {
		done, validLen, exists, notes, err := readJournal(fsys, path, fingerprint)
		if err != nil {
			return nil, nil, nil, err
		}
		if exists {
			f, err := fsys.OpenFile(path, os.O_WRONLY, 0o644)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("campaign: reopen journal: %w", err)
			}
			// Drop the torn or corrupt suffix of an interrupted writer so
			// new outcomes never glue onto its fragments.
			if err := f.Truncate(validLen); err != nil {
				return nil, nil, nil, fmt.Errorf("campaign: trim journal: %w", err)
			}
			if _, err := f.Seek(validLen, io.SeekStart); err != nil {
				return nil, nil, nil, fmt.Errorf("campaign: seek journal: %w", err)
			}
			return &journal{f: f, n: validLen}, done, notes, nil
		}
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("campaign: create journal: %w", err)
	}
	hdr, err := json.Marshal(journalHeader{Magic: journalMagic, Version: journalVersion, Schema: journalSchema, Fingerprint: fingerprint})
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := f.Write(append(hdr, '\n')); err != nil {
		return nil, nil, nil, fmt.Errorf("campaign: write journal header: %w", err)
	}
	return &journal{f: f, n: int64(len(hdr) + 1)}, nil, nil, nil
}

// readJournal parses an existing journal, returning the outcomes it
// holds (in journal order) and the byte length of its valid prefix
// (header plus intact records). exists is false when the file is
// missing or empty — a fresh start. A present file with a foreign
// header or fingerprint is an error. Torn or checksum-failing records —
// and everything after them — are reported in notes and excluded, so
// their trials re-run.
func readJournal(fsys iofault.FS, path string, fingerprint string) ([]TrialOutcome, int64, bool, []string, error) {
	data, err := fsys.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, false, nil, nil
	}
	if err != nil {
		return nil, 0, false, nil, fmt.Errorf("campaign: read journal: %w", err)
	}
	if len(data) == 0 {
		return nil, 0, false, nil, nil // empty file: fresh start
	}
	line, rest, ok := cutLine(data)
	var hdr journalHeader
	if !ok || json.Unmarshal(line, &hdr) != nil || hdr.Magic != journalMagic {
		return nil, 0, false, nil, fmt.Errorf("campaign: %s is not a campaign journal", path)
	}
	if hdr.Version != journalVersion {
		return nil, 0, false, nil, fmt.Errorf("campaign: journal version %d unsupported (want %d): %s was written by an incompatible build; pass a fresh -journal path", hdr.Version, journalVersion, path)
	}
	if hdr.Fingerprint != fingerprint {
		return nil, 0, false, nil, fmt.Errorf("campaign: journal %s was written for a different trial grid or schema (fingerprint %s, want %s); pass a fresh -journal path or drop -resume", path, hdr.Fingerprint, fingerprint)
	}

	var notes []string
	validLen := int64(len(line) + 1)
	var done []TrialOutcome
	for len(rest) > 0 {
		line, next, ok := cutLine(rest)
		if !ok {
			// Unterminated fragment: never a committed record, since the
			// writer emits each record and its newline in a single write.
			notes = append(notes, fmt.Sprintf("campaign: journal %s ends in a torn record (%d bytes); its trial re-runs", path, len(rest)))
			break
		}
		var rec journalRecord
		if json.Unmarshal(line, &rec) != nil || rec.Outcome == nil {
			notes = append(notes, fmt.Sprintf("campaign: journal %s has a malformed record at byte %d; discarding it and the %d bytes after it (their trials re-run)", path, validLen, int64(len(rest))-int64(len(line)+1)))
			break
		}
		if got := fmt.Sprintf("%08x", crc32.ChecksumIEEE(rec.Outcome)); got != rec.CRC {
			notes = append(notes, fmt.Sprintf("campaign: journal %s has a checksum-failing record at byte %d (stored %s, computed %s); discarding it and the %d bytes after it (their trials re-run)", path, validLen, rec.CRC, got, int64(len(rest))-int64(len(line)+1)))
			break
		}
		var out TrialOutcome
		if json.Unmarshal(rec.Outcome, &out) != nil || out.ID == "" {
			notes = append(notes, fmt.Sprintf("campaign: journal %s has an undecodable outcome at byte %d; discarding it and everything after it", path, validLen))
			break
		}
		done = append(done, out)
		validLen += int64(len(line) + 1)
		rest = next
	}
	return done, validLen, true, notes, nil
}

// cutLine splits b at its first newline. ok is false when no newline
// remains.
func cutLine(b []byte) (line, rest []byte, ok bool) {
	i := bytes.IndexByte(b, '\n')
	if i < 0 {
		return nil, nil, false
	}
	return b[:i], b[i+1:], true
}

// append journals one outcome, retrying transient storage faults with
// a truncate-and-rewrite so a retried record never glues onto the torn
// prefix a failed attempt left behind. Errors are sticky and surfaced
// at close so workers never have to unwind mid-trial for an I/O
// failure.
func (j *journal) append(out TrialOutcome) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	payload, err := json.Marshal(out)
	if err != nil {
		j.err = err
		return
	}
	enc, err := json.Marshal(journalRecord{CRC: fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload)), Outcome: payload})
	if err != nil {
		j.err = err
		return
	}
	line := append(enc, '\n')
	if err := backoff.Retry(journalRetry, nil, func() error { return j.attemptLocked(line) }); err != nil {
		j.err = fmt.Errorf("campaign: journal append: %w", err)
		return
	}
	j.n += int64(len(line))
}

// attemptLocked is one append attempt. It runs with mu held — its only
// caller is append's retry closure — but the call arrives through
// backoff.Retry, which hides the locked call site from the mutexguard
// propagation; the suppressions below record that proof obligation.
func (j *journal) attemptLocked(line []byte) error {
	//lint:ignore mutexguard called with mu held; the backoff.Retry indirection hides append's locked call site
	if j.dirty {
		// A prior attempt may have landed a partial record (a short
		// write, or ENOSPC after a prefix); claw the file back to the
		// last committed boundary before rewriting.
		//lint:ignore mutexguard called with mu held; see the function comment
		if terr := j.f.Truncate(j.n); terr != nil { //lint:ignore blockhold the truncate must run inside the critical section: a retry truncates back to j.n, so no other append may land between them
			return fmt.Errorf("campaign: trim torn journal suffix: %w", terr)
		}
		//lint:ignore mutexguard called with mu held; see the function comment
		if _, serr := j.f.Seek(j.n, io.SeekStart); serr != nil { //lint:ignore blockhold same critical section as the truncate above
			return fmt.Errorf("campaign: reseek journal: %w", serr)
		}
		//lint:ignore mutexguard called with mu held; see the function comment
		j.dirty = false
	}
	//lint:ignore blockhold the append must commit inside the critical section: concurrent appends must not interleave, and j.n must match the file prefix a retry truncates back to
	if _, werr := j.f.Write(line); werr != nil {
		//lint:ignore mutexguard called with mu held; see the function comment
		j.dirty = true
		return werr
	}
	return nil
}

// sync flushes the journal to stable storage (the graceful-drain path).
func (j *journal) sync() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	//lint:ignore blockhold fsync under the lock keeps late appends from racing the drain-path flush; called once per campaign, not per trial
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("campaign: journal sync: %w", err)
	}
}

func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	//lint:ignore blockhold close runs once at campaign teardown after the workers have drained; holding mu orders it after any straggling append
	if err := j.f.Close(); j.err == nil && err != nil {
		j.err = fmt.Errorf("campaign: close journal: %w", err)
	}
	return j.err
}
