package lint

import "go/token"

// Analyzers returns the full determinism/hygiene suite in a fixed
// order: the five local checks of v1, the v2 whole-program and
// concurrency analyzers, the v3 annotation-driven lock-discipline
// suite, then the v4 goroutine-lifecycle suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapOrder, GlobalRand, WallClock, FloatCmp, ErrDrop, GoCapture,
		DetTaint, Units,
		MutexGuard, LockOrder, BlockHold,
		GoLeak, ChanOwn, StopFlow,
	}
}

// An AnalyzerStat is one analyzer's cost and yield for a run: how long
// it took and how many findings survived suppression.
type AnalyzerStat struct {
	Name     string
	Findings int
	WallNS   int64
}

// Run applies the analyzers to the packages, filters out findings
// covered by a reasoned //lint:ignore directive, and returns the
// remainder sorted by position. Malformed directives, and directives
// that suppressed nothing a ran check could have produced (stale
// suppressions), are included as findings. dir is the module root used
// to locate the units manifest; it is empty for in-memory fixture runs.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	return RunDir("", pkgs, analyzers)
}

// RunDir is Run with an explicit module root directory.
func RunDir(dir string, pkgs []*Package, analyzers []*Analyzer) []Finding {
	findings, _ := RunDirStats(dir, pkgs, analyzers, nil)
	return findings
}

// RunDirStats is RunDir, additionally returning per-analyzer statistics
// in the order the analyzers were given. Wall time is measured with the
// injected monotonic clock (nanoseconds); a nil clock records zero
// durations, so the findings path pays nothing for the plumbing. The
// concurrency analyzers share one fact base, whose construction is
// charged to the first of them that runs.
func RunDirStats(dir string, pkgs []*Package, analyzers []*Analyzer, clock func() int64) ([]Finding, []AnalyzerStat) {
	ignores, findings := collectIgnores(fsetOf(pkgs), pkgs)
	report := func(f Finding) {
		if !ignores.suppressed(f) {
			findings = append(findings, f)
		}
	}
	if clock == nil {
		clock = func() int64 { return 0 }
	}
	wall := map[string]int64{}
	flow := &flowCache{}
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		start := clock()
		for _, pkg := range pkgs {
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, report: report}
			a.Run(pass)
		}
		wall[a.Name] += clock() - start
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		mp := &ModulePass{
			Analyzer: a,
			Fset:     fsetOf(pkgs),
			Dir:      dir,
			Pkgs:     pkgs,
			ignores:  ignores,
			report:   report,
			flow:     flow,
		}
		start := clock()
		a.RunModule(mp)
		wall[a.Name] += clock() - start
	}

	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	registered := map[string]bool{"lintdirective": true}
	for _, a := range Analyzers() {
		registered[a.Name] = true
	}
	findings = append(findings, ignores.stale(ran, registered)...)
	sortFindings(findings)

	counts := map[string]int{}
	for _, f := range findings {
		counts[f.Check]++
	}
	stats := make([]AnalyzerStat, 0, len(analyzers))
	for _, a := range analyzers {
		stats = append(stats, AnalyzerStat{Name: a.Name, Findings: counts[a.Name], WallNS: wall[a.Name]})
	}
	return findings, stats
}

// fsetOf returns the packages' shared FileSet (every loader and fixture
// helper uses a single set).
func fsetOf(pkgs []*Package) *token.FileSet {
	if len(pkgs) == 0 {
		return token.NewFileSet()
	}
	return pkgs[0].Fset
}

// RunModule is the driver entry point: load the module containing dir
// and run the full suite over it.
func RunModule(dir string) (*Module, []Finding, error) {
	m, err := LoadModule(dir)
	if err != nil {
		return nil, nil, err
	}
	return m, RunDir(m.Dir, m.Pkgs, Analyzers()), nil
}
