package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"

	"r3d/internal/detmap"
)

// ChanOwn enforces channel ownership discipline: a channel is closed
// only by its allocating owner — the function that made it, a method of
// the struct type holding it, or a function the owner hands it to that
// is annotated `// r3dlint:closer <reason>`. Along any path it also
// flags a second close of the same channel, a send reachable after a
// close (including through a call whose callee closes or sends on the
// parameter, chain printed dettaint-style), and a send or receive on a
// provably nil channel outside select (inside select a nil channel is
// the idiomatic way to disable a case).
//
// Identity is type-scoped like the lock suite's: j.doneCh on two Jobs
// is one identity, and per-instance aliasing is not tracked — the
// documented over-approximation shared with mutexguard.
var ChanOwn = &Analyzer{
	Name:      "chanown",
	Doc:       "channel closed by a non-owner, double-closed, sent to after close, or nil",
	RunModule: runChanOwn,
}

// chanRef kinds.
const (
	crLocal = iota
	crParam
	crField
	crPkgVar
)

// chanRef is one resolved channel identity.
type chanRef struct {
	key     string
	disp    string
	kind    int
	named   *types.Named // declaring type, for fields
	foreign bool         // package-level channel of another package
}

// chanSummary is the interprocedural effect of one declared function on
// its channel-typed parameters.
type chanSummary struct {
	closes map[int]string // param index → chain, e.g. "retire → close(ch)"
	sends  map[int]string
}

func runChanOwn(mp *ModulePass) {
	fb := mp.facts()
	fb.reportAnnErrs(mp)
	sums := buildChanSummaries(mp.Pkgs)
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				w := &chanWalker{
					mp: mp, closer: fb.closerFn[obj], sums: sums, pkg: pkg, fn: obj,
					params:      map[*types.Var]bool{},
					allocs:      map[string]bool{},
					deferClosed: map[string]bool{},
				}
				w.recv = recvNamed(obj)
				w.addParams(fd.Recv, fd.Type.Params)
				w.collectAllocs(fd.Body)
				w.walkStmt(fd.Body, newChanState())
			}
		}
	}
}

// chanState is the flow state of the walk: channels that may be closed
// on some path to this point (with the position of the close, for
// messages), and locals that must still be nil.
type chanState struct {
	closed map[string]token.Pos
	nilch  map[string]bool
}

func newChanState() *chanState {
	return &chanState{closed: map[string]token.Pos{}, nilch: map[string]bool{}}
}

func (st *chanState) clone() *chanState {
	c := newChanState()
	for _, k := range detmap.SortedKeys(st.closed) {
		c.closed[k] = st.closed[k]
	}
	for _, k := range detmap.SortedKeys(st.nilch) {
		c.nilch[k] = st.nilch[k]
	}
	return c
}

// replace overwrites st with src in place.
func (st *chanState) replace(src *chanState) {
	for _, k := range detmap.SortedKeys(st.closed) {
		if _, ok := src.closed[k]; !ok {
			delete(st.closed, k)
		}
	}
	for _, k := range detmap.SortedKeys(src.closed) {
		st.closed[k] = src.closed[k]
	}
	for _, k := range detmap.SortedKeys(st.nilch) {
		if !src.nilch[k] {
			delete(st.nilch, k)
		}
	}
}

// join merges two branch exits: closed is a may-union (earliest
// position wins for stable messages), nil a must-intersection.
func joinChanStates(a, b *chanState) *chanState {
	out := a.clone()
	for _, k := range detmap.SortedKeys(b.closed) {
		if p, ok := out.closed[k]; !ok || b.closed[k] < p {
			out.closed[k] = b.closed[k]
		}
	}
	for _, k := range detmap.SortedKeys(out.nilch) {
		if !b.nilch[k] {
			delete(out.nilch, k)
		}
	}
	return out
}

// chanWalker walks one declaration (and its literals, each with fresh
// flow state) reporting ownership and lifecycle findings.
type chanWalker struct {
	mp          *ModulePass
	closer      bool // the declaration is annotated r3dlint:closer
	sums        map[*types.Func]*chanSummary
	pkg         *Package
	fn          *types.Func  // enclosing declaration
	recv        *types.Named // receiver type when the declaration is a method
	params      map[*types.Var]bool
	allocs      map[string]bool // identities make()d anywhere in this declaration
	deferClosed map[string]bool
	inSelect    bool
}

func (w *chanWalker) addParams(groups ...*ast.FieldList) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, f := range g.List {
			for _, name := range f.Names {
				if v, ok := w.pkg.Info.Defs[name].(*types.Var); ok {
					w.params[v] = true
				}
			}
		}
	}
}

// collectAllocs records every channel identity allocated by a make (or
// a composite-literal field set to one) anywhere under n, defining
// "allocating owner" for field and variable closes in this declaration.
func (w *chanWalker) collectAllocs(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				if !isMakeChan(w.pkg.Info, rhs) {
					continue
				}
				if ref, ok := w.resolveChan(n.Lhs[i]); ok {
					w.allocs[ref.key] = true
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) != len(n.Values) {
				return true
			}
			for i, v := range n.Values {
				if !isMakeChan(w.pkg.Info, v) {
					continue
				}
				if ref, ok := w.resolveChan(n.Names[i]); ok {
					w.allocs[ref.key] = true
				}
			}
		case *ast.CompositeLit:
			tv, ok := w.pkg.Info.Types[n]
			if !ok {
				return true
			}
			named := namedOf(tv.Type)
			if named == nil {
				return true
			}
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok || !isMakeChan(w.pkg.Info, kv.Value) {
					continue
				}
				if id, ok := kv.Key.(*ast.Ident); ok {
					w.allocs["field:"+packagePathOf(named)+"."+named.Obj().Name()+"."+id.Name] = true
				}
			}
		}
		return true
	})
}

func isMakeChan(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// resolveChan resolves an expression denoting a channel to its
// type-scoped identity.
func (w *chanWalker) resolveChan(x ast.Expr) (chanRef, bool) {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		obj := w.pkg.Info.Uses[x]
		if obj == nil {
			obj = w.pkg.Info.Defs[x]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return chanRef{}, false
		}
		v = v.Origin()
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return chanRef{
				key:  "pkgvar:" + v.Pkg().Path() + "." + v.Name(),
				disp: v.Pkg().Name() + "." + v.Name(), kind: crPkgVar,
				foreign: v.Pkg().Path() != w.pkg.Path,
			}, true
		}
		kind := crLocal
		if w.params[v] {
			kind = crParam
		}
		return chanRef{key: "local:" + posKey(v.Pos()), disp: v.Name(), kind: kind}, true
	case *ast.SelectorExpr:
		if s, ok := w.pkg.Info.Selections[x]; ok && s.Kind() == types.FieldVal {
			t := s.Recv()
			if ptr, isPtr := t.(*types.Pointer); isPtr {
				t = ptr.Elem()
			}
			named, isNamed := t.(*types.Named)
			if !isNamed {
				return chanRef{}, false
			}
			if named.Origin() != nil {
				named = named.Origin()
			}
			return chanRef{
				key:  "field:" + packagePathOf(named) + "." + named.Obj().Name() + "." + x.Sel.Name,
				disp: named.Obj().Name() + "." + x.Sel.Name, kind: crField, named: named,
			}, true
		}
		if id, isIdent := ast.Unparen(x.X).(*ast.Ident); isIdent {
			if _, isPkg := w.pkg.Info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := w.pkg.Info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil {
					return chanRef{
						key:  "pkgvar:" + v.Pkg().Path() + "." + v.Name(),
						disp: v.Pkg().Name() + "." + v.Name(), kind: crPkgVar,
						foreign: v.Pkg().Path() != w.pkg.Path,
					}, true
				}
			}
		}
		return chanRef{}, false
	case *ast.StarExpr:
		return w.resolveChan(x.X)
	}
	return chanRef{}, false
}

func posKey(p token.Pos) string {
	return "#" + strconv.Itoa(int(p))
}

// shortPos renders a position for inclusion inside messages: base
// filename and line, enough to locate the earlier event in the same
// report.
func (w *chanWalker) shortPos(pos token.Pos) string {
	p := w.mp.Fset.Position(pos)
	return filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)
}

func (w *chanWalker) walkStmt(s ast.Stmt, st *chanState) (terminated bool) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, stmt := range s.List {
			if w.walkStmt(stmt, st) {
				return true
			}
		}
	case *ast.ExprStmt:
		w.walkExpr(s.X, st)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.walkExpr(r, st)
		}
		for i, l := range s.Lhs {
			if ref, ok := w.resolveChan(l); ok && isChanExpr(w.pkg.Info, l) {
				delete(st.closed, ref.key)
				delete(st.nilch, ref.key)
				if ref.kind == crLocal && len(s.Lhs) == len(s.Rhs) && isNilExpr(w.pkg.Info, s.Rhs[i]) {
					st.nilch[ref.key] = true
				}
			} else {
				w.walkExpr(l, st)
			}
		}
	case *ast.IncDecStmt:
		w.walkExpr(s.X, st)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				w.walkExpr(v, st)
			}
			if len(vs.Values) == 0 {
				// `var ch chan T` without an initializer is nil.
				for _, name := range vs.Names {
					if v, ok := w.pkg.Info.Defs[name].(*types.Var); ok {
						if _, isChan := v.Type().Underlying().(*types.Chan); isChan {
							st.nilch["local:"+posKey(v.Pos())] = true
						}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.walkExpr(r, st)
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.IfStmt:
		w.walkStmt(s.Init, st)
		w.walkExpr(s.Cond, st)
		thenSt := st.clone()
		thenTerm := w.walkStmt(s.Body, thenSt)
		elseSt := st.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.walkStmt(s.Else, elseSt)
		}
		switch {
		case thenTerm && elseTerm:
		case thenTerm:
			st.replace(elseSt)
		case elseTerm:
			st.replace(thenSt)
		default:
			st.replace(joinChanStates(thenSt, elseSt))
		}
		return thenTerm && elseTerm
	case *ast.ForStmt:
		w.walkStmt(s.Init, st)
		w.walkExpr(s.Cond, st)
		bodySt := st.clone()
		if !w.walkStmt(s.Body, bodySt) {
			w.walkStmt(s.Post, bodySt)
		}
		// The body may have run: closes inside it are live afterwards.
		st.replace(joinChanStates(st, bodySt))
	case *ast.RangeStmt:
		w.walkExpr(s.X, st)
		if ref, ok := w.resolveChan(s.X); ok && isChanExpr(w.pkg.Info, s.X) && st.nilch[ref.key] {
			w.mp.Reportf(s.Pos(), "range over nil channel %s blocks forever", ref.disp)
		}
		bodySt := st.clone()
		w.walkStmt(s.Body, bodySt)
		st.replace(joinChanStates(st, bodySt))
	case *ast.SwitchStmt:
		w.walkStmt(s.Init, st)
		w.walkExpr(s.Tag, st)
		w.walkClauses(s.Body, st, false)
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Init, st)
		w.walkStmt(s.Assign, st)
		w.walkClauses(s.Body, st, false)
	case *ast.SelectStmt:
		w.walkClauses(s.Body, st, true)
	case *ast.SendStmt:
		w.walkExpr(s.Chan, st)
		w.walkExpr(s.Value, st)
		if ref, ok := w.resolveChan(s.Chan); ok {
			if pos, closed := st.closed[ref.key]; closed {
				w.mp.Reportf(s.Pos(), "send on %s after close at %s", ref.disp, w.shortPos(pos))
			}
			if st.nilch[ref.key] && !w.inSelect {
				w.mp.Reportf(s.Pos(), "send on nil channel %s blocks forever (not in a select)", ref.disp)
			}
		}
	case *ast.GoStmt:
		// The spawned body runs at an unknown time: literals are walked
		// with fresh state; caller state is not affected.
		w.walkSpawnOrDefer(s.Call, st)
	case *ast.DeferStmt:
		if arg, ok := closeArg(w.pkg.Info, s.Call); ok {
			w.handleClose(arg, s.Call.Pos(), st, true)
			return false
		}
		w.walkSpawnOrDefer(s.Call, st)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	case *ast.EmptyStmt:
	default:
	}
	return false
}

// walkSpawnOrDefer scans a go/defer call's subexpressions (literals get
// fresh state) without applying callee summaries to the caller's flow —
// the call runs at an unknown time.
func (w *chanWalker) walkSpawnOrDefer(call *ast.CallExpr, st *chanState) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.walkLit(lit)
	} else if fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.walkExpr(fun.X, st)
	}
	for _, a := range call.Args {
		w.walkExpr(a, st)
	}
}

// walkClauses walks switch/select clause bodies, each on a clone, and
// joins the surviving exits (closed: union; nil: intersection).
func (w *chanWalker) walkClauses(body *ast.BlockStmt, st *chanState, isSelect bool) {
	exhaustive := isSelect
	var exits []*chanState
	for _, c := range body.List {
		cSt := st.clone()
		var stmts []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				w.walkExpr(e, cSt)
			}
			if cc.List == nil {
				exhaustive = true
			}
			stmts = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				prev := w.inSelect
				w.inSelect = true
				w.walkStmt(cc.Comm, cSt)
				w.inSelect = prev
			}
			stmts = cc.Body
		}
		term := false
		for _, stmt := range stmts {
			if term = w.walkStmt(stmt, cSt); term {
				break
			}
		}
		if !term {
			exits = append(exits, cSt)
		}
	}
	if !exhaustive {
		exits = append(exits, st.clone())
	}
	if len(exits) == 0 {
		return
	}
	out := exits[0]
	for _, e := range exits[1:] {
		out = joinChanStates(out, e)
	}
	st.replace(out)
}

func (w *chanWalker) walkExpr(e ast.Expr, st *chanState) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
	case *ast.SelectorExpr:
		w.walkExpr(e.X, st)
	case *ast.CallExpr:
		w.walkCall(e, st)
	case *ast.UnaryExpr:
		w.walkExpr(e.X, st)
		if e.Op == token.ARROW {
			if ref, ok := w.resolveChan(e.X); ok && st.nilch[ref.key] && !w.inSelect {
				w.mp.Reportf(e.Pos(), "receive from nil channel %s blocks forever (not in a select)", ref.disp)
			}
		}
	case *ast.BinaryExpr:
		w.walkExpr(e.X, st)
		w.walkExpr(e.Y, st)
	case *ast.ParenExpr:
		w.walkExpr(e.X, st)
	case *ast.IndexExpr:
		w.walkExpr(e.X, st)
		w.walkExpr(e.Index, st)
	case *ast.IndexListExpr:
		w.walkExpr(e.X, st)
		for _, i := range e.Indices {
			w.walkExpr(i, st)
		}
	case *ast.SliceExpr:
		w.walkExpr(e.X, st)
		w.walkExpr(e.Low, st)
		w.walkExpr(e.High, st)
		w.walkExpr(e.Max, st)
	case *ast.StarExpr:
		w.walkExpr(e.X, st)
	case *ast.TypeAssertExpr:
		w.walkExpr(e.X, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.walkExpr(el, st)
		}
	case *ast.KeyValueExpr:
		w.walkExpr(e.Key, st)
		w.walkExpr(e.Value, st)
	case *ast.FuncLit:
		w.walkLit(e)
	default:
	}
}

// walkLit walks a function literal with fresh flow state: it runs at an
// unknown time relative to the enclosing body. The enclosing
// declaration still provides the ownership context (params, allocs,
// receiver, closer annotation).
func (w *chanWalker) walkLit(lit *ast.FuncLit) {
	w.addParams(lit.Type.Params)
	savedDefer := w.deferClosed
	w.deferClosed = map[string]bool{}
	savedSelect := w.inSelect
	w.inSelect = false
	w.walkStmt(lit.Body, newChanState())
	w.inSelect = savedSelect
	w.deferClosed = savedDefer
}

// closeArg matches the builtin close(x) call.
func closeArg(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" || len(call.Args) != 1 {
		return nil, false
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return nil, false
	}
	return call.Args[0], true
}

func (w *chanWalker) walkCall(call *ast.CallExpr, st *chanState) {
	if arg, ok := closeArg(w.pkg.Info, call); ok {
		w.walkExpr(arg, st)
		w.handleClose(arg, call.Pos(), st, false)
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := w.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			for _, a := range call.Args {
				w.walkExpr(a, st)
			}
			return
		}
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		w.walkExpr(fun.X, st)
	case *ast.Ident:
	default:
		w.walkExpr(fun, st)
	}
	for _, a := range call.Args {
		w.walkExpr(a, st)
	}

	fn := calleeFunc(w.pkg.Info, call)
	if fn == nil {
		return
	}
	fn = fn.Origin()
	sum, ok := w.sums[fn]
	if !ok {
		return
	}
	for i, a := range call.Args {
		if !isChanExpr(w.pkg.Info, a) {
			continue
		}
		ref, ok := w.resolveChan(a)
		if !ok {
			continue
		}
		if chain, closes := sum.closes[i]; closes {
			if pos, closed := st.closed[ref.key]; closed {
				w.mp.Reportf(call.Pos(), "passes %s, closed at %s, to %s which closes it again (%s)",
					ref.disp, w.shortPos(pos), fn.Name(), chain)
			}
			st.closed[ref.key] = call.Pos()
			continue
		}
		if chain, sends := sum.sends[i]; sends {
			if pos, closed := st.closed[ref.key]; closed {
				w.mp.Reportf(call.Pos(), "passes %s, closed at %s, to %s which sends on it (%s)",
					ref.disp, w.shortPos(pos), fn.Name(), chain)
			}
		}
	}
}

// handleClose checks ownership and lifecycle for one close(x).
func (w *chanWalker) handleClose(x ast.Expr, pos token.Pos, st *chanState, deferred bool) {
	ref, ok := w.resolveChan(x)
	if !ok {
		return
	}
	switch ref.kind {
	case crParam:
		if !w.closer {
			w.mp.Reportf(pos,
				"close of channel parameter %s: the allocating owner closes; if the owner hands it off here, annotate the declaration: // r3dlint:closer <reason>",
				ref.disp)
		}
	case crField:
		ownMethod := w.recv != nil && ref.named != nil && w.recv.Obj() == ref.named.Obj()
		if !ownMethod && !w.allocs[ref.key] && !w.closer {
			w.mp.Reportf(pos,
				"close of %s outside its owning type: only the allocator, a method of %s, or an annotated // r3dlint:closer may close it",
				ref.disp, ref.named.Obj().Name())
		}
	case crPkgVar:
		if ref.foreign && !w.closer {
			w.mp.Reportf(pos, "close of package-level channel %s from another package", ref.disp)
		}
	}
	if deferred {
		if w.deferClosed[ref.key] {
			w.mp.Reportf(pos, "second deferred close of %s", ref.disp)
		}
		w.deferClosed[ref.key] = true
		return
	}
	if first, closed := st.closed[ref.key]; closed {
		w.mp.Reportf(pos, "second close of %s on this path (first close at %s)", ref.disp, w.shortPos(first))
	}
	st.closed[ref.key] = pos
	delete(st.nilch, ref.key)
}

func isChanExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

func isNilExpr(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// buildChanSummaries computes, by fixpoint over the declared functions
// in position order, which channel-typed parameters each function
// closes or sends on — directly or by forwarding the parameter to a
// callee that does.
func buildChanSummaries(pkgs []*Package) map[*types.Func]*chanSummary {
	type declInfo struct {
		fn     *types.Func
		pkg    *Package
		body   *ast.BlockStmt
		params map[*types.Var]int
		pos    token.Pos
	}
	var decls []*declInfo
	sums := map[*types.Func]*chanSummary{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				di := &declInfo{fn: obj, pkg: pkg, body: fd.Body, params: map[*types.Var]int{}, pos: fd.Pos()}
				idx := 0
				for _, field := range fd.Type.Params.List {
					for _, name := range field.Names {
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
							di.params[v] = idx
						}
						idx++
					}
					if len(field.Names) == 0 {
						idx++
					}
				}
				decls = append(decls, di)
				sums[obj] = &chanSummary{closes: map[int]string{}, sends: map[int]string{}}
			}
		}
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].pos < decls[j].pos })

	paramIdx := func(d *declInfo, e ast.Expr) (int, string, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return 0, "", false
		}
		v, ok := d.pkg.Info.Uses[id].(*types.Var)
		if !ok {
			return 0, "", false
		}
		i, ok := d.params[v]
		return i, v.Name(), ok
	}

	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			sum := sums[d.fn]
			ast.Inspect(d.body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SendStmt:
					if i, name, ok := paramIdx(d, n.Chan); ok {
						if _, has := sum.sends[i]; !has {
							sum.sends[i] = d.fn.Name() + " → send(" + name + ")"
							changed = true
						}
					}
				case *ast.CallExpr:
					if arg, ok := closeArg(d.pkg.Info, n); ok {
						if i, name, ok := paramIdx(d, arg); ok {
							if _, has := sum.closes[i]; !has {
								sum.closes[i] = d.fn.Name() + " → close(" + name + ")"
								changed = true
							}
						}
						return true
					}
					callee := calleeFunc(d.pkg.Info, n)
					if callee == nil {
						return true
					}
					csum, ok := sums[callee.Origin()]
					if !ok {
						return true
					}
					for j, a := range n.Args {
						i, _, ok := paramIdx(d, a)
						if !ok {
							continue
						}
						if chain, closes := csum.closes[j]; closes {
							if _, has := sum.closes[i]; !has {
								sum.closes[i] = d.fn.Name() + " → " + chain
								changed = true
							}
						}
						if chain, sends := csum.sends[j]; sends {
							if _, has := sum.sends[i]; !has {
								sum.sends[i] = d.fn.Name() + " → " + chain
								changed = true
							}
						}
					}
				}
				return true
			})
		}
	}
	return sums
}
