package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"

	"r3d/internal/ckpt"
	"r3d/internal/iofault"
	"r3d/internal/runsched"
)

// The run cache persists the session's memoized simulation windows so
// r3dbench can warm-start across invocations: SaveCache writes every
// successful window to a CRC-guarded ckpt log, replacing the file
// atomically, and LoadCache preloads a later session from it. The cache
// is keyed by a fingerprint over the session quality and the cache
// schema, so a cache written under different window sizes, a different
// suite or an incompatible build fails loudly instead of silently
// polluting results. Preloaded windows are ordinary cache hits
// afterwards — in particular, a ShadowFraction re-verifies them against
// a from-scratch recomputation exactly like any other hit.

const (
	cacheKind = "experiment-runcache"
	// cacheSchema names the persisted entry layout. Bump it whenever
	// cacheEntry, LeadRun or RMTRun change shape: the fingerprint then
	// changes and stale caches are rejected loudly.
	cacheSchema = "r3d-runcache/2"
)

// cacheEntry is the persisted image of one memo entry. runValue's
// fields are unexported by design (the engine's slot is an internal
// union), so persistence goes through this explicit, versioned shape.
type cacheEntry struct {
	Key  RunKey   `json:"key"`
	Lead *LeadRun `json:"lead,omitempty"`
	RMT  *RMTRun  `json:"rmt,omitempty"`
}

// cacheFingerprint hashes the cache schema plus the canonical JSON of
// the quality: every field that changes what a window computes changes
// the fingerprint.
func cacheFingerprint(q Quality) (string, error) {
	enc, err := json.Marshal(q)
	if err != nil {
		return "", fmt.Errorf("experiment: fingerprint quality: %w", err)
	}
	h := fnv.New64a()
	if _, err := h.Write([]byte(cacheSchema + "\n")); err != nil {
		return "", err
	}
	if _, err := h.Write(enc); err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// hashRunKey drives shadow selection: a pure function of the key's
// canonical string form.
func hashRunKey(k RunKey) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(k.String())) // fnv.Write cannot fail
	return h.Sum32()
}

// encodeRunValue is the canonical byte form compared during shadow
// checks. Both union arms are encoded; the inactive arm is zero on both
// sides of the comparison.
func encodeRunValue(v runValue) ([]byte, error) {
	return json.Marshal(struct {
		Lead LeadRun `json:"lead"`
		RMT  RMTRun  `json:"rmt"`
	}{Lead: v.lead, RMT: v.rmt})
}

// SaveCache persists every successful memoized window to path on the
// real filesystem. See SaveCacheTo.
func (s *Session) SaveCache(path string) (int, error) {
	return s.SaveCacheTo(iofault.OS(), path)
}

// SaveCacheTo persists every successful memoized window to path on fsys
// through ckpt.WriteFile, which replaces the file's whole content
// atomically. It returns the number of entries written.
func (s *Session) SaveCacheTo(fsys iofault.FS, path string) (int, error) {
	fp, err := cacheFingerprint(s.Q)
	if err != nil {
		return 0, err
	}
	entries := s.eng.Entries()
	recs := make([]cacheEntry, len(entries))
	for i := range entries {
		ent := &entries[i] // Entries returns copies, so records may point into them
		recs[i].Key = ent.Key
		if ent.Key.Kind == KindLeading {
			recs[i].Lead = &ent.Val.lead
		} else {
			recs[i].RMT = &ent.Val.rmt
		}
	}
	if err := ckpt.WriteFile(fsys, path, ckpt.Meta{Kind: cacheKind, Fingerprint: fp}, recs); err != nil {
		return 0, err
	}
	return len(entries), nil
}

// LoadCache preloads the session from a cache written by SaveCache
// under the same quality and build. A damaged cache preloads its valid
// prefix, with a note on the dropped suffix; no cache yet, or one whose
// header cannot be read, degrades to a cold start with a note; an
// intact cache for a different quality or build is a hard error (point
// r3dbench at a fresh -cache path instead). It returns the number of
// entries preloaded.
func (s *Session) LoadCache(path string) (int, []string, error) {
	return s.LoadCacheFrom(iofault.OS(), path)
}

// LoadCacheFrom is LoadCache against an explicit filesystem.
func (s *Session) LoadCacheFrom(fsys iofault.FS, path string) (int, []string, error) {
	fp, err := cacheFingerprint(s.Q)
	if err != nil {
		return 0, nil, err
	}
	recs, err := ckpt.LoadFrom(fsys, path, ckpt.Meta{Kind: cacheKind, Fingerprint: fp})
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, []string{fmt.Sprintf("experiment: no run cache at %s; starting cold", path)}, nil
		}
		var corrupt *ckpt.CorruptError
		if errors.As(err, &corrupt) {
			return 0, []string{fmt.Sprintf("experiment: %v — no recoverable cache; starting cold", err)}, nil
		}
		return 0, nil, err
	}
	var notes []string
	if recs.Note != "" {
		notes = append(notes, recs.Note+"; those windows are recomputed on demand")
	}
	entries := make([]runsched.Entry[RunKey, runValue], 0, recs.Len())
	for i := 0; i < recs.Len(); i++ {
		var ce cacheEntry
		if err := recs.Decode(i, &ce); err != nil {
			return 0, notes, err
		}
		var v runValue
		switch {
		case ce.Key.Kind == KindLeading && ce.Lead != nil:
			v.lead = *ce.Lead
		case ce.Key.Kind != KindLeading && ce.RMT != nil:
			v.rmt = *ce.RMT
		default:
			return 0, notes, fmt.Errorf("experiment: run cache %s entry %d (%s) has no value for its kind", path, i, ce.Key)
		}
		entries = append(entries, runsched.Entry[RunKey, runValue]{Key: ce.Key, Val: v})
	}
	s.eng.Preload(entries)
	return len(entries), notes, nil
}
