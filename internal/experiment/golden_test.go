package experiment

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"r3d/internal/nuca"
)

var update = flag.Bool("update", false, "regenerate the testdata goldens instead of comparing against them")

const (
	windowsGolden = "testdata/windows.golden"
	renderGolden  = "testdata/render.golden"
)

// goldenQuality is Fast() with windows a sixtieth as long: short enough
// for every test run, long enough that any change to what a window
// computes (a latency, a redirect penalty, a scheduling rule) moves a
// digest.
func goldenQuality() Quality {
	q := Fast()
	q.WarmupInsts /= 60
	q.MeasureInsts /= 60
	return q
}

// goldenKeys is the distinct, canonically ordered union of every
// registry manifest plus two leading windows at the frequency-scaled
// memory latencies that §3.3's DVFS search requests on demand (the
// manifests cannot name them; they depend on a thermal result).
func goldenKeys(q Quality) []RunKey {
	keys := append(ManifestUnion(q, Registry()),
		LeadingKey(q, "mcf", L3D2A, nuca.DistributedSets, 285),
		LeadingKey(q, "mcf", L3D2A, nuca.DistributedSets, 270))
	slices.SortFunc(keys, CompareRunKeys)
	return slices.Compact(keys)
}

// TestCheckerCapReachesWindows pins what windows.golden cannot: at
// goldenQuality every rmt/<b>/2d-a/1.40GHz digest equals its 2.00 GHz
// twin, so a resolveWindow that dropped the checker's DFS cap would
// still pass TestWindowsGolden. At Fast() windows ÷ 30 the cap changes
// the gzip and mesa windows.
func TestCheckerCapReachesWindows(t *testing.T) {
	q := Fast()
	q.WarmupInsts /= 30
	q.MeasureInsts /= 30
	s := NewSession(q)
	for _, b := range []string{"gzip", "mesa"} {
		capped, full := RMTKey(q, b, L2DA, 1.40), RMTKey(q, b, L2DA, 2.00)
		if err := s.Prefetch([]RunKey{capped, full}); err != nil {
			t.Fatal(err)
		}
		var enc [2][]byte
		for i, k := range []RunKey{capped, full} {
			v, err := s.eng.Cached(k)
			if err != nil {
				t.Fatalf("%s: %v", k, err)
			}
			if enc[i], err = encodeRunValue(v); err != nil {
				t.Fatalf("%s: %v", k, err)
			}
		}
		if bytes.Equal(enc[0], enc[1]) {
			t.Errorf("%s and %s computed identical windows; the checker cap did not reach the simulation", capped, full)
		}
	}
}

// TestWindowsGolden pins the values the simulator computes: one line
// per window with the SHA-256 of its canonical encoding (the bytes the
// shadow check compares). Worker-count identity and shadow checks only
// compare the simulator with itself; this compares it with a committed
// record, so a change that shifts every window alike fails here. An
// intended model change regenerates the file with
//
//	go test ./internal/experiment -run TestWindowsGolden -update
//
// and the diff shows which windows moved.
func TestWindowsGolden(t *testing.T) {
	q := goldenQuality()
	keys := goldenKeys(q)
	s := NewSessionWith(q, SessionOptions{Workers: runtime.GOMAXPROCS(0)})
	if err := s.Prefetch(keys); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, k := range keys {
		v, err := s.eng.Cached(k)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		enc, err := encodeRunValue(v)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		fmt.Fprintf(&got, "%s %x\n", k, sha256.Sum256(enc))
	}
	checkGolden(t, windowsGolden, got.Bytes(), "window digest")
}

// checkGolden compares got with the golden file at path line by line,
// so a failure names each line (what names a digest) that moved. With
// -update it rewrites the file instead.
func checkGolden(t *testing.T, path string, got []byte, what string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
	for _, l := range gotLines {
		if !slices.Contains(wantLines, l) {
			t.Errorf("%s changed or added: %s", what, l)
		}
	}
	for _, l := range wantLines {
		if !slices.Contains(gotLines, l) {
			t.Errorf("golden line no longer produced: %s", l)
		}
	}
	t.Log("run with -update if the model change is intended")
}
