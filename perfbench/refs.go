package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// The references pin what the program computes for the default and the
// held-out seed: a digest of every window's stats (windows), of every
// rendered experiment (warm-render) and of every job result (serve).
// A run on another seed has no stored references; it checks itself
// instead (replays, restores and recomputations that must agree byte
// for byte), and its metadata says so. Record references with
// -write-refs after a change that is meant to alter simulated output.

//go:embed refs/*.json
var refsFS embed.FS

// refsDir is where -write-refs records references, relative to the
// checkout root.
const refsDir = "perfbench/refs"

type seedRefs struct {
	Seed int64 `json:"seed"`
	// Windows maps each RunKey's canonical string to its stats digest.
	Windows map[string]string `json:"windows,omitempty"`
	// WarmRender maps each experiment to the digest of its rendered
	// bytes, the DTM study at dtmHorizonMs.
	WarmRender map[string]string `json:"warm_render,omitempty"`
	Serve      *serveRefs        `json:"serve,omitempty"`
}

type serveRefs struct {
	// Entries is the script length the grids were recorded for.
	Entries int `json:"entries"`
	// Experiments holds the tiny-tier experiment results. The tiny tier's
	// quality does not depend on the seed, so every seed is checked
	// against the default seed's copy.
	Experiments map[string]string `json:"experiments"`
	// Grids holds one digest per novel campaign grid, in script order.
	Grids []string `json:"grids"`
}

func refFile(seed int64) string { return fmt.Sprintf("seed%d.json", seed) }

// loadRefs returns the embedded references of seed, or nil when the
// seed has none.
func loadRefs(seed int64) (*seedRefs, error) {
	data, err := refsFS.ReadFile("refs/" + refFile(seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var r seedRefs
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("references for seed %d: %w", seed, err)
	}
	return &r, nil
}

// tinyExperimentRefs returns the recorded tiny-tier experiment digests
// (the default seed's copy when rc's seed has none).
func tinyExperimentRefs(rc *runConfig) (map[string]string, error) {
	r := rc.refs
	if r == nil || r.Serve == nil {
		def, err := loadRefs(defaultSeed)
		if err != nil {
			return nil, err
		}
		r = def
	}
	if r == nil || r.Serve == nil {
		return nil, nil
	}
	return r.Serve.Experiments, nil
}

// updateRefs rewrites the seed's reference file in the source tree with
// update applied to its current content.
func updateRefs(seed int64, update func(*seedRefs)) error {
	path := filepath.Join(refsDir, refFile(seed))
	r := seedRefs{Seed: seed}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	update(&r)
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// refStatus describes which references the run was checked against.
func refStatus(rc *runConfig) string {
	switch {
	case rc.writeRefs:
		return "recorded"
	case rc.refs != nil:
		return "stored (seed " + fmt.Sprint(rc.seed) + ")"
	default:
		return "none for this seed: self-checked by replay, restore and recomputation"
	}
}

// digest is a short content hash used in references.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
