package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"

	"r3d/internal/campaign"
	"r3d/internal/ckpt"
)

// The daemon persists two things through internal/ckpt, both written
// only by the single persister goroutine (never under a lock):
//
//   - the job store (jobs.ckpt): every completed job's result bytes,
//     keyed by content fingerprint, so a restarted daemon serves
//     previously computed jobs byte-identically without recomputing;
//   - one window cache per tier (cache-<tier>.ckpt): the session memo
//     entries, so experiment jobs warm-start across restarts.
//
// Both inherit ckpt's crash discipline: atomic temp-file+rename
// commits, a .prev generation for rollback, CRC-guarded records, and a
// hard mismatch error for files written by a different configuration.

const (
	storeKind = "serve-jobstore"
	// storeSchema names the persisted record layout; bump on any change
	// to storedJob so stale stores are rejected loudly.
	storeSchema = "r3d-jobstore/1"
)

// storedJob is the persisted image of one completed job.
type storedJob struct {
	ID          string         `json:"id"`
	Kind        string         `json:"kind"`
	Experiment  string         `json:"experiment,omitempty"`
	Quality     string         `json:"quality,omitempty"`
	Grid        *campaign.Grid `json:"grid,omitempty"`
	Result      string         `json:"result"`
	ContentType string         `json:"content_type"`
}

// persistAll commits the job store and every tier's window cache that
// changed since its last save. It is a no-op without a StatePath. The
// jobs are listed under the lock, but every record is encoded (once per
// job, see Job.storedRecord) and written after it is released.
func (s *Server) persistAll() error {
	if s.opts.StatePath == "" {
		return nil
	}
	fp, err := s.storeFingerprint()
	if err != nil {
		return err
	}

	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	//lint:ignore maporder collection loop; the jobs are sorted by ID below before any order-dependent use
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })

	w := ckpt.NewWriter(ckpt.Meta{Kind: storeKind, Fingerprint: fp})
	for _, j := range jobs {
		rec, done, err := j.storedRecord()
		if err != nil {
			return err
		}
		if done {
			w.AppendEncoded(rec)
		}
	}
	if err := w.CommitTo(s.fsys, s.jobStorePath()); err != nil {
		return fmt.Errorf("serve: commit job store: %w", err)
	}

	for _, t := range s.tiers {
		// Campaign jobs commit no windows, so most passes skip every
		// tier. The count is read before the save: a window committed
		// during it makes the next pass save again.
		sess := s.sessions[t.Name]
		st := sess.EngineStats()
		windows := st.Computed - st.Errors
		if saved, ok := s.cacheSaved[t.Name]; ok && saved == windows {
			continue
		}
		if _, err := sess.SaveCacheTo(s.fsys, s.cachePath(t.Name)); err != nil {
			return fmt.Errorf("serve: save %s window cache: %w", t.Name, err)
		}
		s.cacheSaved[t.Name] = windows
	}
	return nil
}

// restore preloads the job store and tier caches from StatePath. A
// missing or corrupt-beyond-recovery store degrades to a cold start
// (the ckpt layer already rolled back to .prev if it could); a store
// for a different tier configuration is a hard error, matching the
// repo-wide convention that foreign state fails loudly.
func (s *Server) restore() error {
	fp, err := s.storeFingerprint()
	if err != nil {
		return err
	}
	snap, note, err := ckpt.LoadLatestFrom(s.fsys, s.jobStorePath(), ckpt.Meta{Kind: storeKind, Fingerprint: fp})
	if note != "" {
		s.opts.Logf("serve: restore: %s", note)
	}
	switch {
	case err == nil:
		s.mu.Lock()
		for i := 0; i < snap.Len(); i++ {
			var rec storedJob
			if err := snap.Decode(i, &rec); err != nil {
				s.mu.Unlock()
				return fmt.Errorf("serve: job store entry %d: %w", i, err)
			}
			s.jobs[rec.ID] = restoredJob(rec)
		}
		s.mu.Unlock()
		s.opts.Logf("serve: restored %d completed jobs", snap.Len())
	case errors.Is(err, fs.ErrNotExist):
		s.opts.Logf("serve: no job store at %s; starting cold", s.jobStorePath())
	default:
		var corrupt *ckpt.CorruptError
		if errors.As(err, &corrupt) {
			s.opts.Logf("serve: %v — no recoverable job store; starting cold", err)
			break
		}
		return err
	}

	for _, t := range s.tiers {
		n, notes, err := s.sessions[t.Name].LoadCacheFrom(s.fsys, s.cachePath(t.Name))
		for _, msg := range notes {
			s.opts.Logf("serve: restore %s: %s", t.Name, msg)
		}
		if err != nil {
			return fmt.Errorf("serve: load %s window cache: %w", t.Name, err)
		}
		if n > 0 {
			s.opts.Logf("serve: restored %d %s windows", n, t.Name)
		}
	}
	return nil
}
