package experiment

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"r3d/internal/ckpt"
	"r3d/internal/iofault"
	"r3d/internal/nuca"
	"r3d/internal/power"
	"r3d/internal/runsched"
)

// tinyQuality keeps persistence tests fast: two benchmarks, small
// windows.
func tinyQuality() Quality {
	return Quality{
		WarmupInsts:  5_000,
		MeasureInsts: 10_000,
		Benchmarks:   []string{"gzip", "mcf"},
		ThermalTolC:  1e-3, ThermalMaxIters: 10_000,
		Seed: 42,
	}
}

func TestRunCacheSaveLoadRoundTrip(t *testing.T) {
	q := tinyQuality()
	path := filepath.Join(t.TempDir(), "bench.ckpt")

	s1 := NewSession(q)
	lead, err := s1.Leading("gzip", L2DA, nuca.DistributedSets, 0)
	if err != nil {
		t.Fatal(err)
	}
	rmt, err := s1.RMT("mcf", L2DA, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s1.SaveCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("saved %d entries, want 2", n)
	}

	s2 := NewSession(q)
	loaded, notes, err := s2.LoadCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 2 || len(notes) != 0 {
		t.Fatalf("loaded %d entries (notes %q), want 2 clean", loaded, notes)
	}
	if st := s2.EngineStats(); st.Preloaded != 2 {
		t.Errorf("Preloaded = %d, want 2", st.Preloaded)
	}
	lead2, err := s2.Leading("gzip", L2DA, nuca.DistributedSets, 0)
	if err != nil {
		t.Fatal(err)
	}
	rmt2, err := s2.RMT("mcf", L2DA, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.EngineStats(); st.Computed != 0 {
		t.Errorf("warm-started session computed %d windows, want 0", st.Computed)
	}
	a, err := encodeRunValue(runValue{lead: lead, rmt: rmt})
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodeRunValue(runValue{lead: lead2, rmt: rmt2})
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("restored windows differ from computed ones:\n%s\n--- vs ---\n%s", b, a)
	}

	// A missing cache is a cold start with a note, not an error.
	s3 := NewSession(q)
	loaded, notes, err = s3.LoadCache(filepath.Join(t.TempDir(), "absent.ckpt"))
	if err != nil || loaded != 0 || len(notes) == 0 {
		t.Errorf("missing cache: loaded=%d notes=%q err=%v, want cold start with note", loaded, notes, err)
	}
}

func TestRunCacheRejectsForeignQuality(t *testing.T) {
	q := tinyQuality()
	path := filepath.Join(t.TempDir(), "bench.ckpt")
	s1 := NewSession(q)
	if _, err := s1.Leading("gzip", L2DA, nuca.DistributedSets, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.SaveCache(path); err != nil {
		t.Fatal(err)
	}

	other := q
	other.MeasureInsts *= 2 // different windows → different results
	s2 := NewSession(other)
	_, _, err := s2.LoadCache(path)
	if err == nil {
		t.Fatal("cache for different quality accepted")
	}
	var mm *ckpt.MismatchError
	if !errors.As(err, &mm) {
		t.Errorf("foreign cache surfaced as %v, want *ckpt.MismatchError", err)
	}
}

func TestRunCacheCorruptionDegradesToColdStart(t *testing.T) {
	q := tinyQuality()
	path := filepath.Join(t.TempDir(), "bench.ckpt")
	s1 := NewSession(q)
	if _, err := s1.Leading("gzip", L2DA, nuca.DistributedSets, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(q)
	loaded, notes, err := s2.LoadCache(path)
	if err != nil {
		t.Fatalf("corrupt cache with no previous generation must degrade, not fail: %v", err)
	}
	if loaded != 0 || len(notes) == 0 {
		t.Errorf("loaded=%d notes=%q, want cold start with explanatory note", loaded, notes)
	}
}

// TestRunCacheKeepsValidPrefix: a cache whose last record is torn
// preloads the windows before it and notes the one it dropped.
func TestRunCacheKeepsValidPrefix(t *testing.T) {
	q := tinyQuality()
	path := filepath.Join(t.TempDir(), "bench.ckpt")
	s1 := NewSession(q)
	for _, bench := range []string{"gzip", "mcf"} {
		if _, err := s1.Leading(bench, L2DA, nuca.DistributedSets, 0); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s1.SaveCache(path); err != nil || n != 2 {
		t.Fatalf("saved %d entries (%v), want 2", n, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(q)
	loaded, notes, err := s2.LoadCache(path)
	if err != nil || loaded != 1 || len(notes) != 1 || !strings.Contains(notes[0], "torn record") {
		t.Fatalf("torn cache: loaded=%d notes=%q err=%v, want the first window and a note on the torn one", loaded, notes, err)
	}
}

func TestShadowVerifiesPreloadedWindows(t *testing.T) {
	q := tinyQuality()
	path := filepath.Join(t.TempDir(), "bench.ckpt")
	key := LeadingKey(q, "gzip", L2DA, nuca.DistributedSets, 0)

	s1 := NewSession(q)
	if _, err := s1.Leading("gzip", L2DA, nuca.DistributedSets, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.SaveCache(path); err != nil {
		t.Fatal(err)
	}

	// A clean cache shadow-verifies without divergence.
	s2 := NewSessionWith(q, SessionOptions{ShadowFraction: 1})
	if _, _, err := s2.LoadCache(path); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Leading("gzip", L2DA, nuca.DistributedSets, 0); err != nil {
		t.Fatal(err)
	}
	if st := s2.EngineStats(); st.ShadowChecked != 1 || st.ShadowDiverged != 0 {
		t.Errorf("clean cache: checked=%d diverged=%d, want 1/0", st.ShadowChecked, st.ShadowDiverged)
	}

	// Tamper with the persisted window (re-sealing the file's own
	// checksums): only a shadow recomputation can expose it.
	fp, err := cacheFingerprint(q)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ckpt.LoadFrom(iofault.OS(), path, ckpt.Meta{Kind: cacheKind, Fingerprint: fp})
	if err != nil {
		t.Fatal(err)
	}
	var ce cacheEntry
	if err := snap.Decode(0, &ce); err != nil {
		t.Fatal(err)
	}
	if ce.Lead == nil {
		t.Fatalf("entry 0 is not a leading window: %+v", ce)
	}
	ce.Lead.Stats.Instructions += 999
	if err := ckpt.WriteFile(iofault.OS(), path, ckpt.Meta{Kind: cacheKind, Fingerprint: fp}, []cacheEntry{ce}); err != nil {
		t.Fatal(err)
	}

	s3 := NewSessionWith(q, SessionOptions{ShadowFraction: 1})
	if _, _, err := s3.LoadCache(path); err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Leading("gzip", L2DA, nuca.DistributedSets, 0); err != nil {
		t.Fatal(err)
	}
	divs := s3.ShadowDivergences()
	if len(divs) != 1 {
		t.Fatalf("divergences = %+v, want exactly the tampered window", divs)
	}
	if CompareRunKeys(divs[0].Key, key) != 0 {
		t.Errorf("divergence on %s, want %s", divs[0].Key, key)
	}
	if !strings.Contains(divs[0].Stored, fmt.Sprint(ce.Lead.Stats.Instructions)) || divs[0].Stored == divs[0].Recomputed {
		t.Errorf("divergence encodings:\nstored:     %s\nrecomputed: %s", divs[0].Stored, divs[0].Recomputed)
	}
}

// TestShadowRecomputesSharedWindowsFromScratch tampers with a persisted
// dfs/<b>/default window whose rmt/<b>/2d-a/2.00GHz twin the session
// simulates first, so the twin's simulation sits in the window memo
// under the spec both keys name. The memo entry is then made to agree
// with the tampered window: a shadow recompute that read the memo
// would find nothing wrong, so only one that simulates from scratch
// reports the divergence.
func TestShadowRecomputesSharedWindowsFromScratch(t *testing.T) {
	q := tinyQuality()
	path := filepath.Join(t.TempDir(), "bench.ckpt")
	key := DFSVariantKey(q, "gzip", "default")

	s1 := NewSession(q)
	if _, err := s1.eng.Get(key); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	fp, err := cacheFingerprint(q)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ckpt.LoadFrom(iofault.OS(), path, ckpt.Meta{Kind: cacheKind, Fingerprint: fp})
	if err != nil {
		t.Fatal(err)
	}
	var ce cacheEntry
	if err := snap.Decode(0, &ce); err != nil {
		t.Fatal(err)
	}
	if ce.RMT == nil || CompareRunKeys(ce.Key, key) != 0 {
		t.Fatalf("entry 0 is not %s: %+v", key, ce)
	}
	ce.RMT.MeanFreqGHz += 0.5
	if err := ckpt.WriteFile(iofault.OS(), path, ckpt.Meta{Kind: cacheKind, Fingerprint: fp}, []cacheEntry{ce}); err != nil {
		t.Fatal(err)
	}

	s := NewSessionWith(q, SessionOptions{ShadowFraction: 1})
	if _, _, err := s.LoadCache(path); err != nil {
		t.Fatal(err)
	}
	twin, err := s.RMT("gzip", L2DA, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if twin.MeanFreqGHz == ce.RMT.MeanFreqGHz {
		t.Fatal("the twin took its value from the preloaded window; preloads must not feed the memo")
	}
	if rep := s.EngineReport(); rep.Simulated != 1 {
		t.Fatalf("twin: %d simulations, want 1", rep.Simulated)
	}
	spec, err := resolveWindow(key)
	if err != nil {
		t.Fatal(err)
	}
	notMemoized := func() (runValue, error) { return runValue{}, errors.New("not memoized") }
	if _, how, _ := s.sims.Do(spec, notMemoized); how != runsched.Hit {
		t.Fatal("the twin's simulation is not in the memo under the default variant's spec")
	}
	s.sims = runsched.Flight[windowSpec, runValue]{}
	if _, _, err := s.sims.Do(spec, func() (runValue, error) { return runValue{rmt: *ce.RMT}, nil }); err != nil {
		t.Fatal(err)
	}

	if _, err := s.eng.Get(key); err != nil {
		t.Fatal(err)
	}
	divs := s.ShadowDivergences()
	if len(divs) != 1 || CompareRunKeys(divs[0].Key, key) != 0 {
		t.Fatalf("divergences = %+v, want exactly the tampered %s", divs, key)
	}
	if divs[0].Stored == divs[0].Recomputed {
		t.Errorf("divergence encodings equal: %s", divs[0].Stored)
	}
}

func TestThermalNonConvergenceCountsWarnings(t *testing.T) {
	q := tinyQuality()
	q.ThermalMaxIters = 3
	q.ThermalTolC = 1e-9
	s := NewSession(q)
	act := power.Activity{}
	res, err := s.SolveThermal(ThermalCase{Model: M2DA, Act: act, L2Rate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("3 SOR iterations at 1e-9 tolerance must not converge")
	}
	if res.Iters != 3 {
		t.Errorf("Iters = %d, want the cap (3)", res.Iters)
	}
	if n := s.ThermalWarnings(); n != 1 {
		t.Errorf("ThermalWarnings = %d, want 1", n)
	}

	// A generous budget converges and adds no warning.
	q2 := tinyQuality()
	s2 := NewSession(q2)
	res2, err := s2.SolveThermal(ThermalCase{Model: M2DA, Act: act, L2Rate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Converged {
		t.Error("10k-iteration budget at 1e-3 tolerance must converge")
	}
	if n := s2.ThermalWarnings(); n != 0 {
		t.Errorf("ThermalWarnings = %d after a converged solve, want 0", n)
	}
}
