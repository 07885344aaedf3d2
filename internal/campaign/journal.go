package campaign

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"

	"r3d/internal/ckpt"
	"r3d/internal/iofault"
)

// The journal is a ckpt log: a header identifying the grid, then one
// CRC32-guarded TrialOutcome record per completed trial in completion
// order. Because each record is appended whole under a mutex, a
// campaign killed at any point leaves at worst one torn final line;
// resume truncates the file back to its last valid record, re-runs only
// the trials without an outcome, and the aggregate (ordered by trial
// ID, not journal order) is byte-identical to an uninterrupted run. The
// per-record checksum extends that guarantee from torn tails to
// corruption anywhere: a record whose payload no longer matches its CRC
// — and everything after it, whose framing can no longer be trusted —
// is discarded and its trials re-run.

const (
	journalKind = "campaign-journal"
	// journalSchema names the record schema this build reads and
	// writes. It is hashed into the grid fingerprint, so a resume
	// against a journal from an incompatible build fails the
	// fingerprint check loudly — record schemas are never mixed within
	// one file.
	journalSchema = "campaign-journal/v3"
)

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

// journal is the open journal. Workers append to it directly; mu
// serializes them, because the log has no lock of its own.
type journal struct {
	mu sync.Mutex
	// r3dlint:guardedby mu
	log *ckpt.Log
	// r3dlint:guardedby mu
	err error // first append error, surfaced at close
}

// openJournal prepares the journal at path. Without resume the file is
// truncated and a fresh header written. With resume an existing file is
// validated against the grid fingerprint, truncated past any torn or
// corrupt suffix, and its outcomes returned in journal order; a missing
// or empty file degrades to a fresh start so resuming is safe on the
// first run too. A file that is not a journal for this grid is refused.
func openJournal(fsys iofault.FS, path string, fingerprint string, resume bool) (*journal, []TrialOutcome, []string, error) {
	log, recs, err := ckpt.Open(fsys, path, ckpt.Meta{Kind: journalKind, Fingerprint: fingerprint}, resume)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("campaign: journal: %w", err)
	}
	var notes []string
	if recs.Note != "" {
		notes = append(notes, recs.Note+"; their trials re-run")
	}
	done := make([]TrialOutcome, 0, recs.Len())
	for i := 0; i < recs.Len(); i++ {
		var out TrialOutcome
		if err := recs.Decode(i, &out); err != nil || out.ID == "" {
			notes = append(notes, fmt.Sprintf("campaign: journal %s record %d is not a trial outcome; skipping it (its trial re-runs)", path, i))
			continue
		}
		done = append(done, out)
	}
	return &journal{log: log}, done, notes, nil
}

// append journals one outcome. ckpt retries transient storage faults
// in-line. Errors are sticky and surfaced at close so workers never have
// to unwind mid-trial for an I/O failure.
func (j *journal) append(out TrialOutcome) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if err := j.log.Append(out); err != nil {
		j.err = fmt.Errorf("campaign: journal append: %w", err)
	}
}

// sync flushes the journal to stable storage (the graceful-drain path).
func (j *journal) sync() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if err := j.log.Sync(); err != nil {
		j.err = fmt.Errorf("campaign: journal sync: %w", err)
	}
}

func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Close(); j.err == nil && err != nil {
		j.err = fmt.Errorf("campaign: close journal: %w", err)
	}
	return j.err
}
