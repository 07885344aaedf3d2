package serve

import (
	"errors"
	"fmt"

	"r3d/internal/campaign"
	"r3d/internal/ckpt"
)

// The daemon persists two things through internal/ckpt, both written
// only by the persister goroutine, or by Drain once it has exited (never
// under a lock):
//
//   - the job store (jobs.ckpt): a log of every completed job's result
//     bytes, keyed by content fingerprint, so a restarted daemon serves
//     previously computed jobs byte-identically without recomputing.
//     Between drains each persist appends the records of the jobs that
//     finished since the last one and syncs once, so each record is
//     written once; Drain rewrites the store whole. A corrupt suffix
//     found at restore is logged and dropped: its jobs are recomputed
//     on demand, the same as jobs that never persisted.
//   - one window cache per tier (cache-<tier>.ckpt): the session memo
//     entries, written whole whenever the tier committed a window since
//     its last save, so experiment jobs warm-start across restarts.
//
// Both are refused with a hard error when they were written under a
// different tier configuration or schema.

const (
	storeKind = "serve-jobstore"
	// storeSchema names the persisted record layout; bump on any change
	// to storedJob so stale stores are rejected loudly.
	storeSchema = "r3d-jobstore/2"
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

// persistAll makes the finished jobs and every tier cache that changed
// since its last save durable. It is a no-op without a StatePath.
// Between drains it appends the jobs finished since the last pass to
// the job store; whole, Drain's final pass, rewrites the store instead.
// Each record is encoded after s.mu is released.
func (s *Server) persistAll(whole bool) error {
	if s.opts.StatePath == "" {
		return nil
	}
	fp, err := s.storeFingerprint()
	if err != nil {
		return err
	}
	meta := ckpt.Meta{Kind: storeKind, Fingerprint: fp}
	s.mu.Lock()
	finished := s.finished
	s.mu.Unlock()

	if whole {
		if s.store != nil {
			// The rewrite replaces everything the log holds, so a failed
			// close loses nothing.
			_ = s.store.Close()
			s.store = nil
		}
		recs := make([]storedJob, len(finished))
		for i, j := range finished {
			recs[i] = j.record()
		}
		if err := ckpt.WriteFile(s.fsys, s.jobStorePath(), meta, recs); err != nil {
			return fmt.Errorf("serve: rewrite job store: %w", err)
		}
	} else if s.store != nil || s.stored < len(finished) {
		if s.store == nil {
			if s.store, _, err = ckpt.Open(s.fsys, s.jobStorePath(), meta, false); err != nil {
				return fmt.Errorf("serve: create job store: %w", err)
			}
		}
		for _, j := range finished[s.stored:] {
			if err := s.store.Append(j.record()); err != nil {
				return fmt.Errorf("serve: append to job store: %w", err)
			}
			s.stored++
		}
		if err := s.store.Sync(); err != nil {
			return fmt.Errorf("serve: sync job store: %w", err)
		}
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

// restore preloads the tier caches and the job store from StatePath,
// and keeps the store open for the persister's appends. A missing
// store, or one whose header cannot be read, degrades to a cold start;
// a store or cache for a different tier configuration is a hard error,
// matching the repo-wide convention that foreign state fails loudly.
func (s *Server) restore() error {
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

	fp, err := s.storeFingerprint()
	if err != nil {
		return err
	}
	log, recs, err := ckpt.Open(s.fsys, s.jobStorePath(), ckpt.Meta{Kind: storeKind, Fingerprint: fp}, true)
	var corrupt *ckpt.CorruptError
	if errors.As(err, &corrupt) {
		s.opts.Logf("serve: %v — no recoverable job store; starting cold", err)
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: restore job store: %w", err)
	}
	if recs.Note != "" {
		s.opts.Logf("serve: restore: %s; those jobs are recomputed on demand", recs.Note)
	}
	jobs := make([]*Job, recs.Len())
	for i := range jobs {
		var rec storedJob
		if err := recs.Decode(i, &rec); err != nil {
			_ = log.Close() // the decode failure is the error worth reporting
			return fmt.Errorf("serve: job store entry %d: %w", i, err)
		}
		jobs[i] = restoredJob(rec)
	}
	s.mu.Lock()
	for _, j := range jobs {
		s.jobs[j.ID] = j
	}
	s.finished = jobs
	s.mu.Unlock()
	s.store, s.stored = log, len(jobs)
	s.opts.Logf("serve: restored %d completed jobs", len(jobs))
	return nil
}
