package r3d

import (
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"testing"

	"r3d/internal/lint"
)

// loadOnce loads and analyzes the module a single time for every test
// in this file (the source-importer type-check of the whole module is
// the expensive part).
var loadOnce = sync.OnceValues(func() (*lintRun, error) {
	m, findings, err := lint.RunModule(".")
	if err != nil {
		return nil, err
	}
	return &lintRun{m: m, findings: findings}, nil
})

type lintRun struct {
	m        *lint.Module
	findings []lint.Finding
}

// TestLintClean runs the full r3dlint determinism/hygiene suite over
// every non-test package of the module and fails on any unsuppressed
// finding. This is the tier-1 enforcement hook: introducing a map
// iteration, global-RNG call, wall-clock read (even laundered through
// wrapper functions — dettaint follows the call graph), exact float
// comparison, dropped error, cross-dimension unit mix or racy goroutine
// capture without a reasoned //lint:ignore breaks `go test ./...`, not
// just a separately-run linter.
func TestLintClean(t *testing.T) {
	r, err := loadOnce()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(r.m.Pkgs) < 20 {
		t.Fatalf("loaded only %d packages; loader is missing parts of the module", len(r.m.Pkgs))
	}
	for _, f := range r.findings {
		t.Errorf("%s", f)
	}
	if t.Failed() {
		t.Logf("fix the findings above or suppress them with `//lint:ignore <check> <reason>` (see README \"Determinism & lint suite\")")
	}
}

// TestLintModelCodeHasEmptyBaseline pins the strictest gate where it
// matters most: model code (internal/ packages) is held to an EMPTY
// baseline, so `-baseline` can never become a dumping ground that lets
// new nondeterminism into the simulator core.
func TestLintModelCodeHasEmptyBaseline(t *testing.T) {
	r, err := loadOnce()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	var model []lint.Finding
	for _, f := range r.findings {
		if strings.HasPrefix(lint.Relativize(r.m.Dir, f).Pos.Filename, "internal/") {
			model = append(model, f)
		}
	}
	empty := lint.NewBaseline(nil)
	regressions, stale := empty.Apply(r.m.Dir, model)
	if len(stale) != 0 {
		t.Errorf("empty baseline reported stale entries: %v", stale)
	}
	for _, f := range regressions {
		t.Errorf("model-code finding not covered by a reasoned directive: %s", f)
	}
}

// TestGoVetClean makes `go vet ./...` part of the tier-1 gate: a vet
// diagnostic fails `go test ./...`, not just the separately-run `make
// lint`. It vets the benchmark's own module (perfbench, which builds
// against this one) too, so a change that breaks the benchmark's build
// fails here. Skips when no go binary is on PATH (the test binary may
// run on a machine without the toolchain).
func TestGoVetClean(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go binary not on PATH: %v", err)
	}
	for _, v := range []struct{ dir, pkgs string }{{".", "./..."}, {"perfbench", "."}} {
		cmd := exec.Command(goBin, "vet", v.pkgs)
		cmd.Dir = v.dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Errorf("go vet %s in %s failed (%v) on %s:\n%s", v.pkgs, v.dir, err, runtime.Version(), out)
		}
	}
}

// TestLintJSONIsByteStable re-runs the suite over the already-loaded
// packages and asserts the -json rendering is byte-identical — the
// property that makes baseline files and CI diffs trustworthy.
func TestLintJSONIsByteStable(t *testing.T) {
	r, err := loadOnce()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	first, err := lint.MarshalJSON(r.m.Dir, lint.RunDir(r.m.Dir, r.m.Pkgs, lint.Analyzers()))
	if err != nil {
		t.Fatal(err)
	}
	second, err := lint.MarshalJSON(r.m.Dir, lint.RunDir(r.m.Dir, r.m.Pkgs, lint.Analyzers()))
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Error("JSON findings differ between identical runs over the same loaded module")
	}
}
