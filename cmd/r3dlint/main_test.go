package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const fixture = "testdata/src"

// runCLI invokes the command body and returns its exit code and output
// streams.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func golden(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestFixtureTextOutput(t *testing.T) {
	code, out, stderr := runCLI(t, fixture)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	if want := golden(t, "golden.txt"); out != want {
		t.Errorf("text output mismatch\n--- got ---\n%s--- want ---\n%s", out, want)
	}
	if !strings.Contains(stderr, "21 finding(s)") {
		t.Errorf("stderr %q does not report the finding count", stderr)
	}
}

func TestFixtureJSONOutputIsByteStable(t *testing.T) {
	code, first, _ := runCLI(t, "-json", fixture)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if want := golden(t, "golden.json"); first != want {
		t.Errorf("json output mismatch\n--- got ---\n%s--- want ---\n%s", first, want)
	}
	_, second, _ := runCLI(t, "-json", fixture)
	if first != second {
		t.Error("-json output differs between identical runs")
	}
	var parsed []map[string]any
	if err := json.Unmarshal([]byte(first), &parsed); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if len(parsed) != 21 {
		t.Errorf("parsed %d findings, want 21", len(parsed))
	}
}

func TestBaselineSuppressesKnownFindings(t *testing.T) {
	_, js, _ := runCLI(t, "-json", fixture)
	base := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(base, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, stderr := runCLI(t, "-baseline", base, fixture)
	if code != 0 {
		t.Fatalf("exit %d with full baseline, want 0; stdout:\n%s", code, out)
	}
	if out != "" {
		t.Errorf("unexpected output with full baseline:\n%s", out)
	}
	if strings.Contains(stderr, "stale") {
		t.Errorf("unexpected stale entries: %s", stderr)
	}
}

func TestBaselineFailsOnRegression(t *testing.T) {
	_, js, _ := runCLI(t, "-json", fixture)
	var entries []map[string]any
	if err := json.Unmarshal([]byte(js), &entries); err != nil {
		t.Fatal(err)
	}
	trimmed, err := json.Marshal(entries[1:]) // drop the first entry
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(base, trimmed, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCLI(t, "-baseline", base, fixture)
	if code != 1 {
		t.Fatalf("exit %d with truncated baseline, want 1", code)
	}
	if got := strings.Count(strings.TrimSpace(out), "\n") + 1; got != 1 {
		t.Errorf("%d regression lines, want exactly the dropped finding:\n%s", got, out)
	}
}

func TestBaselineReportsStaleEntries(t *testing.T) {
	_, js, _ := runCLI(t, "-json", fixture)
	var entries []map[string]any
	if err := json.Unmarshal([]byte(js), &entries); err != nil {
		t.Fatal(err)
	}
	entries = append(entries, map[string]any{
		"file": "internal/model/gone.go", "line": 1, "col": 1,
		"check": "maporder", "message": "a finding that no longer exists",
	})
	padded, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(base, padded, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, "-baseline", base, fixture)
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stale entries are non-fatal)", code)
	}
	if !strings.Contains(stderr, "stale baseline entry") || !strings.Contains(stderr, "gone.go") {
		t.Errorf("stderr does not note the stale entry: %s", stderr)
	}
}

func TestUsageAndLoadErrorsExit2(t *testing.T) {
	if code, _, _ := runCLI(t, "-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "-baseline", "testdata/does-not-exist.json", fixture); code != 2 {
		t.Errorf("missing baseline file: exit %d, want 2", code)
	}
}

func TestFixBaselineDropsStaleEntries(t *testing.T) {
	_, js, _ := runCLI(t, "-json", fixture)
	var entries []map[string]any
	if err := json.Unmarshal([]byte(js), &entries); err != nil {
		t.Fatal(err)
	}
	entries = append(entries, map[string]any{
		"file": "internal/model/gone.go", "line": 1, "col": 1,
		"check": "maporder", "message": "a finding that no longer exists",
	})
	padded, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(base, padded, 0o644); err != nil {
		t.Fatal(err)
	}

	code, _, stderr := runCLI(t, "-baseline", base, "-fix-baseline", fixture)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "kept 21 entries, dropped 1 stale") {
		t.Errorf("stderr does not report the prune: %s", stderr)
	}
	// The rewritten file must now match the live findings exactly: a
	// second plain -baseline run sees no stale entries and no findings.
	rewritten, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(rewritten), "gone.go") {
		t.Error("stale entry survived -fix-baseline")
	}
	code, out, stderr := runCLI(t, "-baseline", base, fixture)
	if code != 0 || out != "" || strings.Contains(stderr, "stale") {
		t.Errorf("pruned baseline not clean: exit %d\nstdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
}

func TestFixBaselineRequiresBaseline(t *testing.T) {
	if code, _, _ := runCLI(t, "-fix-baseline", fixture); code != 2 {
		t.Errorf("-fix-baseline without -baseline: exit %d, want 2", code)
	}
}

// TestRealModuleJSONByteIdentical runs the CLI twice over the real
// module — two fully independent parse/typecheck/analyze passes — and
// requires byte-identical -json output (and a clean module).
func TestRealModuleJSONByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full module twice")
	}
	code, first, stderr := runCLI(t, "-json", "../..")
	if code != 0 {
		t.Fatalf("real module not clean: exit %d\n%s\n%s", code, first, stderr)
	}
	code, second, _ := runCLI(t, "-json", "../..")
	if code != 0 {
		t.Fatalf("second run: exit %d", code)
	}
	if first != second {
		t.Errorf("-json output differs between two full-module runs\n--- first ---\n%s--- second ---\n%s", first, second)
	}

	// The v4 goroutine-lifecycle suite alone must also be clean and
	// byte-identical across independent passes.
	code, v4First, stderr := runCLI(t, "-json", "-only", "goleak,chanown,stopflow", "../..")
	if code != 0 {
		t.Fatalf("real module not clean under -only goleak,chanown,stopflow: exit %d\n%s\n%s", code, v4First, stderr)
	}
	code, v4Second, _ := runCLI(t, "-json", "-only", "goleak,chanown,stopflow", "../..")
	if code != 0 {
		t.Fatalf("second -only run: exit %d", code)
	}
	if v4First != v4Second {
		t.Errorf("-only -json output differs between two full-module runs\n--- first ---\n%s--- second ---\n%s", v4First, v4Second)
	}
}

func TestOnlyAndSkipFilterFindings(t *testing.T) {
	code, out, stderr := runCLI(t, "-only", "goleak", fixture)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("-only goleak: %d findings, want 3:\n%s", len(lines), out)
	}
	for _, l := range lines {
		if !strings.Contains(l, " goleak: ") {
			t.Errorf("-only goleak emitted a foreign finding: %s", l)
		}
	}

	code, out, stderr = runCLI(t, "-skip", "goleak", fixture)
	if code != 1 {
		t.Fatalf("-skip goleak: exit %d, want 1", code)
	}
	if strings.Contains(out, " goleak: ") {
		t.Errorf("-skip goleak still emitted goleak findings:\n%s", out)
	}
	if !strings.Contains(stderr, "18 finding(s)") {
		t.Errorf("-skip goleak stderr %q, want 18 finding(s)", stderr)
	}
}

func TestUnknownAnalyzerNameExits2(t *testing.T) {
	for _, flagName := range []string{"-only", "-skip"} {
		code, _, stderr := runCLI(t, flagName, "goleak,nosuch", fixture)
		if code != 2 {
			t.Errorf("%s nosuch: exit %d, want 2", flagName, code)
		}
		if !strings.Contains(stderr, `unknown analyzer "nosuch"`) || !strings.Contains(stderr, "maporder") {
			t.Errorf("%s stderr does not list the valid analyzers: %s", flagName, stderr)
		}
	}
}

func TestStatsAreByteStable(t *testing.T) {
	orig := statsClock
	defer func() { statsClock = orig }()
	reset := func() {
		var tick int64
		statsClock = func() int64 {
			tick += 1_000_000
			return tick
		}
	}

	reset()
	code, _, first := runCLI(t, "-stats", "-only", "goleak,chanown,stopflow", fixture)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, first)
	}
	reset()
	_, _, second := runCLI(t, "-stats", "-only", "goleak,chanown,stopflow", fixture)
	if first != second {
		t.Errorf("-stats output differs under an identical injected clock\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	// One injected tick between the start and end reads: each analyzer
	// reports exactly 1.000 ms and its golden finding count, and the
	// total row sums them.
	for _, want := range []string{
		"r3dlint: analyzer stats (findings, wall ms):",
		"goleak           3      1.000",
		"chanown          3      1.000",
		"stopflow         3      1.000",
		"total            9      3.000",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("stats block missing %q:\n%s", want, first)
		}
	}
}

func TestListExitsZero(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	for _, name := range []string{"maporder", "globalrand", "wallclock", "floatcmp", "errdrop", "gocapture", "dettaint", "units", "mutexguard", "lockorder", "blockhold", "goleak", "chanown", "stopflow"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing analyzer %s", name)
		}
	}
}
