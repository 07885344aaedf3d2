package lint

import (
	"strings"
	"testing"
)

// TestFactBaseBuiltOncePerRun: every whole-program analyzer of one run
// reads the same fact base, and the next run builds its own.
func TestFactBaseBuiltOncePerRun(t *testing.T) {
	pkgs := []*Package{checkFixture(t, modelPath, `package fixture

func f() {}
`)}
	var seen []*factBase
	probe := func(name string) *Analyzer {
		return &Analyzer{Name: name, RunModule: func(mp *ModulePass) { seen = append(seen, mp.facts()) }}
	}
	Run(pkgs, []*Analyzer{probe("probe1"), probe("probe2")})
	Run(pkgs, []*Analyzer{probe("probe1")})
	if len(seen) != 3 {
		t.Fatalf("%d probes ran, want 3", len(seen))
	}
	if seen[0] != seen[1] {
		t.Error("two analyzers of one run got different fact bases")
	}
	if seen[2] == seen[0] {
		t.Error("a second run reused the first run's fact base")
	}

	// dettaint and chanown read the same base: a run of the two alone
	// builds it once.
	build := newFactBase
	defer func() { newFactBase = build }()
	builds := 0
	newFactBase = func(pkgs []*Package) *factBase {
		builds++
		return build(pkgs)
	}
	Run(pkgs, []*Analyzer{DetTaint, ChanOwn})
	if builds != 1 {
		t.Errorf("a run of dettaint and chanown built %d fact bases, want 1", builds)
	}
}

// TestNestedLiteralChainName: a function literal inside another one is
// named by its whole nesting path in lock-suite chains, as in the
// goroutine suite's.
func TestNestedLiteralChainName(t *testing.T) {
	src := `package fixture

import "sync"

type box struct {
	mu sync.Mutex
	// r3dlint:guardedby mu
	n int
}

func (b *box) bumpLocked() { b.n++ }

func Outer(b *box) {
	func() {
		go func() { b.bumpLocked() }()
	}()
}
`
	got := findings(t, MutexGuard, modelPath, src)
	wantChecks(t, got, "mutexguard")
	if !strings.Contains(got[0].Message, "unlocked path: Outer.func.func → bumpLocked") {
		t.Errorf("chain should name the nested literal by its path: %s", got[0].Message)
	}
}

// TestDeadCodeIsNotWalked: statements after a return are unreachable,
// so neither suite records facts there — here, a leaking spawn.
func TestDeadCodeIsNotWalked(t *testing.T) {
	src := `package fixture

func Quit(ch chan int) {
	return
	go func() {
		for {
			ch <- 1
		}
	}()
}
`
	wantChecks(t, findings(t, GoLeak, modelPath, src))
}
