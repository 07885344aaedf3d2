// Command r3dlint runs the r3d determinism/hygiene static-analysis
// suite (internal/lint) over every non-test package of the module and
// reports findings with file:line:column positions. It exits 0 when the
// module is clean, 1 if any unsuppressed finding remains, and 2 on
// usage or load/typecheck errors.
//
// Usage:
//
//	r3dlint [-list] [-json] [-only names] [-skip names] [-stats] [-baseline file [-fix-baseline]] [dir]
//
// dir defaults to the current directory; a trailing /... is accepted
// (and ignored — the whole module is always analyzed). -json emits the
// findings as a byte-stable JSON array (the same format -baseline
// consumes); -only and -skip filter the suite by comma-separated
// analyzer name (an unknown name is a usage error listing the valid
// ones); -stats reports per-analyzer wall time and finding counts on
// stderr, then their sum; -baseline suppresses the findings recorded in the given
// file and fails only on regressions, reporting baseline entries that
// no longer match anything as stale (non-fatal); -fix-baseline
// rewrites the -baseline file in place, dropping those stale entries.
// Findings are
// suppressed in source with a reasoned directive:
//
//	//lint:ignore <check> <reason>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"r3d/internal/lint"
)

// statsEpoch anchors the -stats clock so readings stay on the
// monotonic clock.
var statsEpoch = time.Now()

// statsClock is the nanosecond clock behind -stats. It is a package
// variable so tests can inject a deterministic clock and pin the stats
// block byte-for-byte.
var statsClock = func() int64 { return int64(time.Since(statsEpoch)) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// printf writes CLI output. The writers are the process's standard
// streams (injected for tests); a failed write there leaves nothing to
// recover, so the error is vacuous and explicitly discarded.
func printf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

// plural selects the singular or plural suffix for n.
func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// run is the testable body of main: it parses args, runs the suite and
// returns the process exit code (0 clean, 1 findings, 2 usage/load
// error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("r3dlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the registered analyzers and exit")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array (byte-stable)")
	only := fs.String("only", "", "run only these `analyzers` (comma-separated)")
	skip := fs.String("skip", "", "skip these `analyzers` (comma-separated)")
	stats := fs.Bool("stats", false, "report per-analyzer wall time and finding counts on stderr")
	baseline := fs.String("baseline", "", "suppress findings recorded in this JSON `file`; fail only on regressions")
	fixBaseline := fs.Bool("fix-baseline", false, "rewrite the -baseline file in place, dropping stale entries")
	fs.Usage = func() {
		printf(stderr, "usage: r3dlint [-list] [-json] [-only names] [-skip names] [-stats] [-baseline file [-fix-baseline]] [dir]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			printf(stderr, "  %-13s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *fixBaseline && *baseline == "" {
		printf(stderr, "r3dlint: -fix-baseline requires -baseline\n")
		fs.Usage()
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			printf(stdout, "%-13s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, ok := selectAnalyzers(*only, *skip, stderr)
	if !ok {
		return 2
	}

	dir := "."
	if fs.NArg() > 0 {
		dir = fs.Arg(0)
	}
	// Accept go-style package patterns: ./... means "the module".
	dir = strings.TrimSuffix(dir, "...")
	dir = strings.TrimSuffix(dir, "/")
	if dir == "" {
		dir = "."
	}

	m, err := lint.LoadModule(dir)
	if err != nil {
		printf(stderr, "r3dlint: %v\n", err)
		return 2
	}
	var clock func() int64
	if *stats {
		clock = statsClock
	}
	findings, perAnalyzer := lint.RunDirStats(m.Dir, m.Pkgs, analyzers, clock)
	if *stats {
		printf(stderr, "r3dlint: analyzer stats (findings, wall ms):\n")
		total := lint.AnalyzerStat{Name: "total"}
		for _, st := range perAnalyzer {
			printf(stderr, "  %-13s %4d %10.3f\n", st.Name, st.Findings, float64(st.WallNS)/1e6)
			total.Findings += st.Findings
			total.WallNS += st.WallNS
		}
		printf(stderr, "  %-13s %4d %10.3f\n", total.Name, total.Findings, float64(total.WallNS)/1e6)
	}

	if *fixBaseline {
		kept, dropped, err := lint.PruneBaseline(*baseline, m.Dir, findings)
		if err != nil {
			printf(stderr, "r3dlint: %v\n", err)
			return 2
		}
		printf(stderr, "r3dlint: baseline %s: kept %d entr%s, dropped %d stale\n",
			*baseline, kept, plural(kept, "y", "ies"), dropped)
	}

	if *baseline != "" {
		b, err := lint.LoadBaseline(*baseline)
		if err != nil {
			printf(stderr, "r3dlint: %v\n", err)
			return 2
		}
		regressions, stale := b.Apply(m.Dir, findings)
		for _, s := range stale {
			printf(stderr, "r3dlint: stale baseline entry: %s\n", s)
		}
		findings = regressions
	}

	if *asJSON {
		data, err := lint.MarshalJSON(m.Dir, findings)
		if err != nil {
			printf(stderr, "r3dlint: %v\n", err)
			return 2
		}
		_, _ = stdout.Write(data)
	} else {
		for _, f := range findings {
			printf(stdout, "%s\n", lint.Relativize(m.Dir, f))
		}
	}
	if len(findings) > 0 {
		printf(stderr, "r3dlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// selectAnalyzers applies the -only and -skip filters to the registry,
// preserving registry order: -only restricts the suite, then -skip
// removes from what remains. An unknown name is a usage error — it
// prints the valid analyzer names and reports failure.
func selectAnalyzers(only, skip string, stderr io.Writer) ([]*lint.Analyzer, bool) {
	all := lint.Analyzers()
	valid := map[string]bool{}
	names := make([]string, 0, len(all))
	for _, a := range all {
		valid[a.Name] = true
		names = append(names, a.Name)
	}
	parse := func(flagName, s string) (map[string]bool, bool) {
		set := map[string]bool{}
		for _, n := range strings.Split(s, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if !valid[n] {
				printf(stderr, "r3dlint: unknown analyzer %q in %s (valid: %s)\n", n, flagName, strings.Join(names, ", "))
				return nil, false
			}
			set[n] = true
		}
		return set, true
	}
	onlySet, ok := parse("-only", only)
	if !ok {
		return nil, false
	}
	skipSet, ok := parse("-skip", skip)
	if !ok {
		return nil, false
	}
	selected := make([]*lint.Analyzer, 0, len(all))
	for _, a := range all {
		if len(onlySet) > 0 && !onlySet[a.Name] {
			continue
		}
		if skipSet[a.Name] {
			continue
		}
		selected = append(selected, a)
	}
	return selected, true
}
