// Package lint is a stdlib-only static-analysis framework for the r3d
// module. It loads and type-checks every package in the module with
// go/parser and go/types (no external dependencies), runs a set of
// determinism- and hygiene-oriented analyzers over the typed ASTs, and
// reports findings with file:line positions.
//
// The analyzers exist because the paper reproduction is only meaningful
// if every rerun of the simulator is bit-reproducible: the thermal grid,
// DFS throttling and fault-injection results must regenerate
// identically. Map-iteration order, global RNG state and wall-clock
// reads inside model code are exactly the constructs that silently break
// that property, so they are rejected at lint time rather than debugged
// after the fact.
//
// Findings may be suppressed with a reasoned directive on the offending
// line or the line directly above it:
//
//	//lint:ignore <check> <reason>
//
// A directive without a reason is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Finding is a single diagnostic produced by an analyzer.
type Finding struct {
	Check   string         // analyzer name, e.g. "maporder"
	Pos     token.Position // resolved file:line:column
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// An Analyzer inspects type-checked code and reports findings. Local
// analyzers set Run and see one package at a time; whole-program
// analyzers set RunModule and see every package of the module at once
// (the call-graph and units checks need the cross-package view).
// Exactly one of the two must be set.
type Analyzer struct {
	Name      string // short lowercase identifier used in reports and ignore directives
	Doc       string // one-line description shown by `r3dlint -list`
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// A Pass carries one analyzer's view of one package: the parsed files,
// the type information, and the report sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	report   func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Check:   p.Analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// A ModulePass carries a whole-program analyzer's view of the module:
// every loaded package, the module root (empty for in-memory fixture
// runs), the run's suppression directives, the report sink and the
// run's shared concurrency fact base.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Dir      string // module root directory; "" when unknown (fixture runs)
	Pkgs     []*Package
	ignores  *ignoreSet
	report   func(Finding)
	flow     *flowCache
}

// Reportf records a finding at pos.
func (mp *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	mp.report(Finding{
		Check:   mp.Analyzer.Name,
		Pos:     mp.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// SuppressedAt reports whether a reasoned //lint:ignore directive for
// check covers pos. Whole-program analyzers use it to honor
// suppressions at a construct they would otherwise propagate from
// (e.g. a justified wall-clock read must not taint its callers).
func (mp *ModulePass) SuppressedAt(pos token.Pos, check string) bool {
	p := mp.Fset.Position(pos)
	return mp.ignores.coversLine(p.Filename, p.Line, check)
}

// inModelCode reports whether pkg is simulator model code (see
// Pass.InModelCode).
func inModelCode(pkg *Package) bool {
	return strings.Contains(pkg.Path, "/internal/")
}

// InModelCode reports whether the package under analysis is simulator
// model code — anything below internal/. Model code must be
// deterministic: time may only advance through cycle counters and
// randomness only through seeded per-component *rand.Rand values.
// Drivers (cmd/), examples and the facade package are not model code.
func (p *Pass) InModelCode() bool {
	return inModelCode(p.Pkg)
}

// calleePkgFunc resolves a call of a package-level function through a
// package selector (e.g. rand.Intn, time.Now) to its package import
// path and function name. It follows import aliases via the type
// checker's uses map, so `import mr "math/rand"` is still resolved to
// "math/rand". ok is false for method calls, locally defined functions,
// conversions and builtins.
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// inspectAll walks every file of the pass's package.
func (p *Pass) inspectAll(fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}

// sortFindings orders findings by position, check name and message, so
// output does not depend on the order the analyzers reported in.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}
