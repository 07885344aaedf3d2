package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// walker performs the one flow-sensitive traversal of a function body,
// appending its facts to node. The state (flowState) is mutated in
// place along straight-line code and cloned at branch points. Where
// control flow joins, the lock state is merged by intersection — a
// mutex counts as held after an if/else only if both arms hold it — and
// chanown's channel state by union (may-closed) and intersection
// (must-nil). Statements after a return or branch on the same path are
// dead and not walked. The loop stack attributes blocking operations,
// calls and stop-channel select clauses to the innermost enclosing
// loop.
type walker struct {
	fb    *factBase
	pkg   *Package
	ir    *ifaceResolver
	node  *fnNode
	loops []*loop // innermost last
	// inSelect suppresses the per-operation channel blockOps of a
	// select's communication clauses: the select statement itself is the
	// single blocking point (or non-blocking, with a default clause).
	// Nor is a nil channel in a select case a chanown finding: it is the
	// idiomatic way to disable the case.
	inSelect bool
	// params holds the parameters of the declaration and of its walked
	// literals, shared by their walkers: closing one is chanown's
	// parameter close.
	params map[*types.Var]bool
	// branches counts the break, continue and goto statements walked so
	// far. A loop body that terminates on every path reaches the loop
	// exit only if it walked one of them.
	branches int
}

// walkStmt walks one statement under st, mutating st in place for
// straight-line effects. terminated reports that control cannot flow
// past the statement on this path (return, branch).
func (w *walker) walkStmt(s ast.Stmt, st *flowState) (terminated bool) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.ExprStmt:
		w.walkExpr(s.X, st)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.walkExpr(r, st)
		}
		for i, l := range s.Lhs {
			w.markWrite(l, st)
			if !isChanExpr(w.pkg.Info, l) {
				continue
			}
			if ref, ok := w.chanRef(l); ok {
				st.reassign(ref.key, ref.kind == crLocal && len(s.Lhs) == len(s.Rhs) && isNilExpr(w.pkg.Info, s.Rhs[i]))
			}
		}
	case *ast.IncDecStmt:
		w.markWrite(s.X, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					w.walkExpr(v, st)
				}
				if len(vs.Values) > 0 {
					continue
				}
				// `var ch chan T` without an initializer is nil.
				for _, name := range vs.Names {
					if v, ok := w.pkg.Info.Defs[name].(*types.Var); ok {
						if _, isChan := v.Type().Underlying().(*types.Chan); isChan {
							st.setNil("local:" + posKey(v.Pos()))
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
		// break/continue/goto leave this path; merging their exit state
		// precisely needs a CFG, so tracking just stops here (the loop
		// exit conservatively intersects with the loop entry anyway).
		w.branches++
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
			// Dead code after the if; leave st unchanged.
		case thenTerm:
			st.replace(elseSt)
		case elseTerm:
			st.replace(thenSt)
		default:
			thenSt.join(elseSt)
			st.replace(thenSt)
		}
		return thenTerm && elseTerm
	case *ast.ForStmt:
		w.walkStmt(s.Init, st)
		desc := "for loop"
		if s.Cond == nil {
			desc = "endless for loop"
		} else {
			w.walkExpr(s.Cond, st)
		}
		w.loops = append(w.loops, w.newLoop(s.Pos(), desc, s.Cond == nil))
		w.walkLoopBody(s.Body, s.Post, st)
		w.loops = w.loops[:len(w.loops)-1]
	case *ast.RangeStmt:
		w.walkExpr(s.X, st)
		l := w.newLoop(s.Pos(), "range loop", false)
		if isChanExpr(w.pkg.Info, s.X) {
			// Range over a channel terminates only when the channel is
			// closed — unprovable here, so it counts as unbounded, and
			// each iteration is a blocking receive.
			l.desc, l.unbounded = "range over channel", true
			w.chanOp(opRange, s.X, s.Pos(), st)
		}
		w.loops = append(w.loops, l)
		if l.unbounded {
			w.block(l.desc, s.Pos(), st, false)
		}
		w.walkLoopBody(s.Body, nil, st)
		w.loops = w.loops[:len(w.loops)-1]
	case *ast.SwitchStmt:
		w.walkStmt(s.Init, st)
		w.walkExpr(s.Tag, st)
		w.walkCaseBodies(s.Body, st, false)
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Init, st)
		w.walkStmt(s.Assign, st)
		w.walkCaseBodies(s.Body, st, false)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.block("select without default", s.Pos(), st, false)
		}
		w.walkCaseBodies(s.Body, st, true)
	case *ast.SendStmt:
		w.walkExpr(s.Chan, st)
		w.walkExpr(s.Value, st)
		if !w.inSelect {
			w.block("channel send", s.Pos(), st, false)
		}
		w.chanOp(opSend, s.Chan, s.Pos(), st)
	case *ast.GoStmt:
		w.walkSpawn(s.Call, st)
	case *ast.DeferStmt:
		// `defer mu.Unlock()` is the canonical pairing: the lock stays
		// held for the remainder of the body, so the deferred release is
		// no state change here. Other deferred calls run at return time
		// with an unknowable held-set; they are recorded as callDefer
		// and excluded from held-set propagation by the analyzers.
		if _, _, _, ok := w.mutexOp(s.Call); ok {
			return false
		}
		if arg, ok := closeArg(w.pkg.Info, s.Call); ok {
			w.closeChan(arg, s.Call.Pos(), st, true)
		}
		w.walkCall(s.Call, st, callDefer)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	default:
		// Other statement kinds carry no lock, goroutine or channel
		// semantics.
	}
	return false
}

// walkLoopBody walks a loop's body and post statement on a clone of st
// and merges what reaches the loop exit into st. The body may run zero
// times, so only locks held both at entry and at the body's exit
// survive the loop. Closes in the body reach the exit unless every path
// through it returns: a terminating body that walked a break, continue
// or goto may leave the loop with them.
func (w *walker) walkLoopBody(body *ast.BlockStmt, post ast.Stmt, st *flowState) {
	bodySt := st.clone()
	branches := w.branches
	terminated := w.walkStmt(body, bodySt)
	if !terminated {
		w.walkStmt(post, bodySt)
		st.held = intersectHeld(st.held, bodySt.held)
	}
	if !terminated || w.branches > branches {
		st.joinChans(bodySt)
	}
}

// walkStmts walks a statement list, stopping at the first statement
// that terminates the path.
func (w *walker) walkStmts(list []ast.Stmt, st *flowState) bool {
	for _, s := range list {
		if w.walkStmt(s, st) {
			return true
		}
	}
	return false
}

// walkCaseBodies walks the clauses of a switch/select body, each on a
// clone of st, and joins the survivors. A switch without a default can
// also fall through with no clause running, so the entry state joins
// the merge then. A select clause receiving a stop-like channel is
// recorded on the innermost loop.
func (w *walker) walkCaseBodies(body *ast.BlockStmt, st *flowState, isSelect bool) {
	// A select always runs exactly one clause (blocking until one is
	// ready when there is no default), so the entry state does not flow
	// around it.
	exhaustive := isSelect
	var exits []*flowState
	for _, c := range body.List {
		cSt := st.clone()
		var stmts []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				w.walkExpr(e, cSt)
			}
			if cc.List == nil {
				exhaustive = true // default clause
			}
			stmts = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				prev := w.inSelect
				w.inSelect = true
				w.walkStmt(cc.Comm, cSt)
				w.inSelect = prev
				if sr, ok := w.stopClause(cc); ok && len(w.loops) > 0 {
					l := w.loops[len(w.loops)-1]
					l.stops = append(l.stops, sr)
				}
			}
			stmts = cc.Body
		}
		if !w.walkStmts(stmts, cSt) {
			exits = append(exits, cSt)
		}
	}
	if !exhaustive {
		exits = append(exits, st.clone())
	}
	if len(exits) == 0 {
		return // every clause terminated; keep st as-is for the dead path
	}
	out := exits[0]
	for _, e := range exits[1:] {
		out.join(e)
	}
	st.replace(out)
}

// walkExpr scans an expression for guarded reads, calls, channel
// receives and nested function literals, mutating st for mutex
// operations and closes that appear as the expression itself.
func (w *walker) walkExpr(e ast.Expr, st *flowState) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		w.identUse(e, st, false)
	case *ast.SelectorExpr:
		w.selectorUse(e, st, false)
	case *ast.CallExpr:
		w.walkCall(e, st, callNormal)
	case *ast.UnaryExpr:
		switch e.Op {
		case token.ARROW:
			w.walkExpr(e.X, st)
			if !w.inSelect {
				w.block("channel receive", e.Pos(), st, false)
			}
			w.chanOp(opRecv, e.X, e.Pos(), st)
		case token.AND:
			// Taking the address of guarded state lets it escape the
			// critical section; treat it as a write-strength access.
			w.markWrite(e.X, st)
		default:
			w.walkExpr(e.X, st)
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
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				// A struct literal's field keys name fields of a value
				// under construction — not shared state — so they are
				// not accesses; map-literal keys are real expressions.
				if id, isIdent := kv.Key.(*ast.Ident); isIdent {
					if v, isVar := w.pkg.Info.Uses[id].(*types.Var); isVar && v.IsField() {
						w.walkExpr(kv.Value, st)
						continue
					}
				}
			}
			w.walkExpr(el, st)
		}
	case *ast.KeyValueExpr:
		w.walkExpr(e.Key, st)
		w.walkExpr(e.Value, st)
	case *ast.FuncLit:
		w.walkLit(e)
	default:
		// Type expressions and literals: nothing to record.
	}
}

// walkLit walks a function literal as its own node with an empty entry
// state: a literal typically runs on a new goroutine, as a deferred
// cleanup or via a scheduler callback, none of which inherit the
// enclosing critical section or run at a known point of its channel
// operations. The spawner scope (top) stays at the enclosing
// declaration so WaitGroup joins across the literal boundary still
// prove, and chanown still judges the literal's closes as the
// declaration's.
func (w *walker) walkLit(lit *ast.FuncLit) *fnNode {
	n := &fnNode{name: w.node.name + ".func", pos: lit.Pos(), pkg: w.pkg, top: w.node.top}
	if tv, ok := w.pkg.Info.Types[lit]; ok {
		n.sig, _ = tv.Type.(*types.Signature)
	}
	w.fb.nodes = append(w.fb.nodes, n)
	addParams(w.pkg, w.params, lit.Type.Params)
	lw := &walker{fb: w.fb, pkg: w.pkg, ir: w.ir, node: n, params: w.params}
	lw.walkStmt(lit.Body, newFlowState())
	return n
}

// walkSpawn records one `go` statement, resolving the spawned body to a
// literal node or a named module function when possible. Spawns of
// plain function values are recorded with no body and excused by
// goleak — the documented precision hole, shared with dettaint's
// references.
func (w *walker) walkSpawn(call *ast.CallExpr, st *flowState) {
	sp := &spawn{pos: call.Pos()}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		sp.lit = w.walkLit(lit)
		for _, a := range call.Args {
			w.walkExpr(a, st)
		}
	} else {
		w.walkCall(call, st, callGo)
		if fn := calleeFunc(w.pkg.Info, call); fn != nil {
			sp.target = fn.Origin()
		}
	}
	w.node.spawns = append(w.node.spawns, sp)
}

// walkCall classifies one call expression: a mutex operation, a
// builtin (close among them), a WaitGroup operation, a known blocking
// call, or an ordinary call site recorded for interprocedural
// propagation. Arguments and the receiver chain are scanned either way.
func (w *walker) walkCall(call *ast.CallExpr, st *flowState, kind callKind) {
	if id, mode, name, ok := w.mutexOp(call); ok {
		switch name {
		case "Lock", "RLock":
			w.node.acquires = append(w.node.acquires, lockAcquire{id: id, pos: call.Pos(), held: st.held.clone()})
			st.held.acquire(id, mode)
		case "Unlock", "RUnlock":
			delete(st.held, id)
		}
		// TryLock/TryRLock/RLocker are ignored: a conditional acquire
		// needs path-sensitive success tracking this walker doesn't do.
		return
	}
	// Builtins: delete mutates its map argument; close closes its
	// channel (a deferred close is the DeferStmt's).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := w.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "delete" && len(call.Args) == 2 {
				w.markWrite(call.Args[0], st)
				w.walkExpr(call.Args[1], st)
				return
			}
			for _, a := range call.Args {
				w.walkExpr(a, st)
			}
			if id.Name == "close" && len(call.Args) == 1 && kind == callNormal {
				w.closeChan(call.Args[0], call.Pos(), st, false)
			}
			return
		}
	}
	// Scan the receiver chain (not the method name itself) and the
	// arguments for guarded accesses and nested calls.
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		w.walkExpr(fun.X, st)
	case *ast.Ident:
		// Callee ident handled below; a plain conversion like T(x) has
		// no callee object and needs no scan of the ident.
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
	fn = fn.Origin() // instantiated generic methods → their declaration
	if kind == callNormal {
		w.passChans(call, fn, st)
	}
	if key, name, ok := w.waitGroupOp(call, fn); ok {
		if name == "Done" {
			w.node.wgDone = append(w.node.wgDone, key)
		} else {
			w.node.wgWait = append(w.node.wgWait, key)
		}
	}
	if kind == callNormal {
		if desc, ok := blockingCallDesc(fn); ok {
			// Sleeps and local file I/O finish on their own.
			finite := desc == "time.Sleep" || strings.Contains(desc, "file I/O")
			w.block(desc, call.Pos(), st, finite)
			return
		}
	}
	c := &callSite{callee: fn, pos: call.Pos(), held: st.held.clone(), kind: kind}
	for _, a := range call.Args {
		if sr, ok := w.stopChan(a); ok {
			c.stopArgs = append(c.stopArgs, sr)
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := w.pkg.Info.Selections[sel]; ok {
			if _, isIface := s.Recv().Underlying().(*types.Interface); isIface {
				c.candidates = w.ir.candidates(fn)
			}
		}
	}
	w.node.calls = append(w.node.calls, c)
	if n := len(w.loops); n > 0 {
		l := w.loops[n-1]
		l.calls = append(l.calls, c)
	}
}

// chanRef resolves a channel expression of the body.
func (w *walker) chanRef(x ast.Expr) (chanRef, bool) {
	return resolveChan(w.pkg, w.params, x)
}

// chanOp records a send on, receive from or range over the channel x
// with the state before it.
func (w *walker) chanOp(kind chanOpKind, x ast.Expr, pos token.Pos, st *flowState) {
	if ref, ok := w.chanRef(x); ok {
		w.node.chanOps = append(w.node.chanOps, chanOp{
			kind: kind, ch: ref, pos: pos,
			closed: st.closed[ref.key], isNil: st.nilch[ref.key] && !w.inSelect,
		})
	}
}

// closeChan records a close of x at pos — deferred: at function exit —
// and applies it to st.
func (w *walker) closeChan(x ast.Expr, pos token.Pos, st *flowState, deferred bool) {
	ref, ok := w.chanRef(x)
	if !ok {
		return
	}
	op := chanOp{kind: opDeferClose, ch: ref, pos: pos}
	if !deferred {
		op.kind, op.closed = opClose, st.closed[ref.key]
		st.setClosed(ref.key, &closedAt{pos: pos})
		delete(st.nilch, ref.key)
	}
	w.node.chanOps = append(w.node.chanOps, op)
}

// passChans records each channel argument of a call to fn with the
// state before the call. Afterwards the channel is closed at the call
// if fn closes that parameter, and as before if not; chanown resolves
// which from fn's summary.
func (w *walker) passChans(call *ast.CallExpr, fn *types.Func, st *flowState) {
	for i, a := range call.Args {
		if !isChanExpr(w.pkg.Info, a) {
			continue
		}
		ref, ok := w.chanRef(a)
		if !ok {
			continue
		}
		prev := st.closed[ref.key]
		w.node.chanOps = append(w.node.chanOps, chanOp{kind: opPass, ch: ref, pos: call.Pos(), closed: prev, callee: fn, arg: i})
		st.setClosed(ref.key, &closedAt{pos: call.Pos(), callee: fn, arg: i, prev: prev})
	}
}

// newLoop records a loop on the node; the caller pushes it.
func (w *walker) newLoop(pos token.Pos, desc string, unbounded bool) *loop {
	l := &loop{pos: pos, desc: desc, unbounded: unbounded}
	w.node.loops = append(w.node.loops, l)
	return l
}

// block records one directly blocking operation at pos, attributed to
// the innermost enclosing loop (if any).
func (w *walker) block(desc string, pos token.Pos, st *flowState, finite bool) {
	op := blockOp{desc: desc, pos: pos, held: st.held.clone(), finite: finite}
	w.node.blocks = append(w.node.blocks, op)
	if n := len(w.loops); n > 0 {
		l := w.loops[n-1]
		l.blocks = append(l.blocks, op)
	}
}

// mutexOp classifies call as a sync.Mutex/RWMutex method invocation on
// a resolvable lock, returning the lock identity, the acquire mode for
// Lock/RLock, and the method name.
func (w *walker) mutexOp(call *ast.CallExpr) (lockID, lockMode, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", lockNone, "", false
	}
	fn, ok := w.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", lockNone, "", false
	}
	recv := recvNamed(fn)
	if recv == nil || (recv.Obj().Name() != "Mutex" && recv.Obj().Name() != "RWMutex") {
		return "", lockNone, "", false
	}
	name := fn.Name()
	var mode lockMode
	switch name {
	case "Lock":
		mode = lockWrite
	case "RLock":
		mode = lockRead
	case "Unlock", "RUnlock", "TryLock", "TryRLock", "RLocker":
		mode = lockNone
	default:
		return "", lockNone, "", false
	}
	id, ok := w.resolveLockSel(sel)
	if !ok {
		return "", lockNone, "", false
	}
	return id, mode, name, true
}

// resolveLockSel resolves the mutex identity behind `<expr>.Lock`. Two
// shapes occur: an explicit mutex field or variable (`s.mu.Lock`,
// `globalMu.Lock`), and a promoted method through an embedded mutex
// (`s.Lock` with `sync.Mutex` embedded in s's type). Locks reached
// through local aliases (`mu := &s.mu; mu.Lock()`) are not tracked.
func (w *walker) resolveLockSel(sel *ast.SelectorExpr) (lockID, bool) {
	// Promoted method: the selection's index path traverses embedded
	// fields before reaching the method; the last field on the path is
	// the mutex.
	if s, ok := w.pkg.Info.Selections[sel]; ok && len(s.Index()) > 1 {
		outer, ok := derefNamed(s.Recv())
		if !ok {
			return "", false
		}
		idx := s.Index()
		var fieldName string
		cur := types.Type(outer)
		for _, i := range idx[:len(idx)-1] {
			if ptr, isPtr := cur.Underlying().(*types.Pointer); isPtr {
				cur = ptr.Elem()
			}
			st, isStruct := cur.Underlying().(*types.Struct)
			if !isStruct || i >= st.NumFields() {
				return "", false
			}
			fieldName = st.Field(i).Name()
			cur = st.Field(i).Type()
		}
		if fieldName == "" {
			return "", false
		}
		return lockID(packagePathOf(outer) + "." + outer.Obj().Name() + "." + fieldName), true
	}
	// Explicit receiver: resolve sel.X as a mutex-typed field or var.
	return w.resolveLockExpr(sel.X)
}

// resolveLockExpr resolves an expression that denotes a mutex to its
// type-scoped identity.
func (w *walker) resolveLockExpr(x ast.Expr) (lockID, bool) {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		v, ok := w.pkg.Info.Uses[x].(*types.Var)
		if !ok || v.Pkg() == nil {
			return "", false
		}
		// Package-level mutex variable.
		if v.Parent() == v.Pkg().Scope() {
			return lockID(v.Pkg().Path() + "." + v.Name()), true
		}
		return "", false
	case *ast.SelectorExpr:
		s, ok := w.pkg.Info.Selections[x]
		if !ok || s.Kind() != types.FieldVal {
			// Could be a package-qualified var: pkg.Mu.
			if v, ok := w.qualifiedVar(x); ok {
				return lockID(v.Pkg().Path() + "." + v.Name()), true
			}
			return "", false
		}
		named, ok := derefNamed(s.Recv())
		if !ok {
			return "", false
		}
		return lockID(packagePathOf(named) + "." + named.Obj().Name() + "." + x.Sel.Name), true
	case *ast.StarExpr:
		return w.resolveLockExpr(x.X)
	}
	return "", false
}

// qualifiedVar resolves a package-qualified variable such as pkg.Mu.
func (w *walker) qualifiedVar(x *ast.SelectorExpr) (*types.Var, bool) {
	id, isIdent := ast.Unparen(x.X).(*ast.Ident)
	if !isIdent {
		return nil, false
	}
	if _, isPkg := w.pkg.Info.Uses[id].(*types.PkgName); !isPkg {
		return nil, false
	}
	v, ok := w.pkg.Info.Uses[x.Sel].(*types.Var)
	return v, ok && v.Pkg() != nil
}

// derefNamed returns the named type behind t, unwrapping one pointer.
func derefNamed(t types.Type) (*types.Named, bool) {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

func packagePathOf(n *types.Named) string {
	if n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path()
}

// recvNamed returns the named receiver type of a method, unwrapping a
// pointer receiver.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	named, _ := derefNamed(sig.Recv().Type())
	return named
}

// identUse records a use of a guarded package-level variable, and
// tracks function objects referenced as values. Objects are normalized
// to their generic origin so fields and methods of instantiated generic
// types (runsched.Engine[K, V]) match the declarations the annotations
// sit on.
func (w *walker) identUse(id *ast.Ident, st *flowState, write bool) {
	w.use(w.pkg.Info.Uses[id], id.Pos(), st, write)
}

// selectorUse records a use of a guarded struct field reached through a
// selection, scans the receiver chain, and tracks method values.
func (w *walker) selectorUse(sel *ast.SelectorExpr, st *flowState, write bool) {
	w.walkExpr(sel.X, st)
	w.use(w.pkg.Info.Uses[sel.Sel], sel.Sel.Pos(), st, write)
}

func (w *walker) use(obj types.Object, pos token.Pos, st *flowState, write bool) {
	switch obj := obj.(type) {
	case *types.Var:
		v := obj.Origin()
		if _, ok := w.fb.guards[v]; ok {
			w.node.accesses = append(w.node.accesses, guardAccess{target: v, pos: pos, write: write, held: st.held.clone()})
		}
	case *types.Func:
		w.fb.valueRef[obj.Origin()] = true
	}
}

// markWrite records a write-strength access to the assignment target l,
// walking its subexpressions as reads.
func (w *walker) markWrite(l ast.Expr, st *flowState) {
	switch l := ast.Unparen(l).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		w.identUse(l, st, true)
	case *ast.SelectorExpr:
		w.selectorUse(l, st, true)
	case *ast.IndexExpr:
		// m[k] = v mutates the container m: write-strength on m.
		w.markWrite(l.X, st)
		w.walkExpr(l.Index, st)
	case *ast.StarExpr:
		w.walkExpr(l.X, st)
	default:
		w.walkExpr(l, st)
	}
}

// stopLikeName reports whether a channel identifier reads as a
// stop/done/cancellation/deadline signal. The vocabulary is matched as
// a case-insensitive substring so `stopCh`, `drainDone` and
// `campaignAbort` all qualify.
func stopLikeName(name string) bool {
	lower := strings.ToLower(name)
	for _, kw := range []string{
		"stop", "done", "quit", "cancel", "abort", "drain",
		"shutdown", "exit", "interrupt", "close", "term", "timeout", "ctx",
	} {
		if strings.Contains(lower, kw) {
			return true
		}
	}
	return false
}

// stopClause classifies one select communication clause as a receive
// from a stop-like channel, and whether its body exits the enclosing
// loop.
func (w *walker) stopClause(cc *ast.CommClause) (stopRecv, bool) {
	var recvX ast.Expr
	switch comm := cc.Comm.(type) {
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			recvX = u.X
		}
	case *ast.AssignStmt:
		if len(comm.Rhs) == 1 {
			if u, ok := ast.Unparen(comm.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				recvX = u.X
			}
		}
	}
	if recvX == nil {
		return stopRecv{}, false
	}
	sr, ok := w.stopChan(recvX)
	if !ok {
		return stopRecv{}, false
	}
	sr.terminates = clauseExitsLoop(cc.Body)
	return sr, true
}

// stopChan resolves a channel expression that reads as a stop signal:
// a stop-like identifier, a stop-like field selection, or a stop-like
// method call (ctx.Done()).
func (w *walker) stopChan(x ast.Expr) (stopRecv, bool) {
	var sr stopRecv
	var rootX ast.Expr
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		if !stopLikeName(x.Name) {
			return stopRecv{}, false
		}
		return stopRecv{name: x.Name, root: w.pkg.Info.Uses[x]}, true
	case *ast.SelectorExpr:
		if !stopLikeName(x.Sel.Name) {
			return stopRecv{}, false
		}
		sr, rootX = stopRecv{name: exprText(x), field: x.Sel.Name}, x.X
	case *ast.CallExpr:
		sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
		if !ok || !stopLikeName(sel.Sel.Name) {
			return stopRecv{}, false
		}
		sr, rootX = stopRecv{name: exprText(x), field: sel.Sel.Name}, sel.X
	default:
		return stopRecv{}, false
	}
	if id, ok := ast.Unparen(rootX).(*ast.Ident); ok {
		sr.root = w.pkg.Info.Uses[id]
	}
	return sr, true
}

// clauseExitsLoop reports whether a select clause body provably leaves
// the enclosing loop: a return, or a labeled break (a plain break would
// only leave the select). Nested function literals are not searched.
func clauseExitsLoop(body []ast.Stmt) bool {
	exits := false
	for _, st := range body {
		ast.Inspect(st, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				exits = true
			case *ast.BranchStmt:
				if n.Tok == token.BREAK && n.Label != nil {
					exits = true
				}
			}
			return !exits
		})
		if exits {
			return true
		}
	}
	return false
}

// exprText renders a simple channel expression for messages.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprText(e.Fun) + "()"
	case *ast.ParenExpr:
		return exprText(e.X)
	}
	return "chan"
}

// waitGroupOp classifies call as sync.WaitGroup Done/Wait on a
// resolvable identity.
func (w *walker) waitGroupOp(call *ast.CallExpr, fn *types.Func) (key, name string, ok bool) {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	recv := recvNamed(fn)
	if recv == nil || recv.Obj().Name() != "WaitGroup" {
		return "", "", false
	}
	name = fn.Name()
	if name != "Done" && name != "Wait" {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	key, ok = w.wgKey(sel.X)
	if !ok {
		return "", "", false
	}
	return key, name, true
}

// wgKey canonically names one WaitGroup: locals by declaration
// position (shared across the literals that capture them), struct
// fields type-scoped like lockIDs, package vars by path.
func (w *walker) wgKey(x ast.Expr) (string, bool) {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		v, ok := w.pkg.Info.Uses[x].(*types.Var)
		if !ok {
			return "", false
		}
		v = v.Origin()
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return "pkgvar:" + v.Pkg().Path() + "." + v.Name(), true
		}
		return fmt.Sprintf("local:%d", v.Pos()), true
	case *ast.SelectorExpr:
		if s, ok := w.pkg.Info.Selections[x]; ok && s.Kind() == types.FieldVal {
			if named, isNamed := derefNamed(s.Recv()); isNamed {
				return "field:" + packagePathOf(named) + "." + named.Obj().Name() + "." + x.Sel.Name, true
			}
			return "", false
		}
		if v, ok := w.qualifiedVar(x); ok {
			return "pkgvar:" + v.Pkg().Path() + "." + v.Name(), true
		}
		return "", false
	case *ast.StarExpr:
		return w.wgKey(x.X)
	}
	return "", false
}

// blockingCallDesc classifies a directly blocking stdlib call: sleeps,
// synchronization waits, and file/network I/O. The list is curated to
// the operations that matter under a hot-path mutex; in-memory stdlib
// calls are never blocking.
func blockingCallDesc(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	path := pkg.Path()
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := recvNamed(fn)
		if recv == nil {
			// Interface methods: net.Conn and friends.
			if path == "net" || path == "net/http" {
				return path + " " + fn.Name() + " (network I/O)", true
			}
			return "", false
		}
		rn := recv.Obj().Name()
		switch path {
		case "sync":
			if (rn == "WaitGroup" || rn == "Cond") && fn.Name() == "Wait" {
				return "(*sync." + rn + ").Wait", true
			}
		case "os":
			if rn == "File" && osFileBlocking[fn.Name()] {
				return "(*os.File)." + fn.Name() + " (file I/O)", true
			}
		case "net/http":
			if rn == "Client" {
				return "(*http.Client)." + fn.Name() + " (network I/O)", true
			}
		case "bufio":
			if rn == "Writer" && fn.Name() == "Flush" {
				return "(*bufio.Writer).Flush (file I/O)", true
			}
		}
		return "", false
	}
	switch path {
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep", true
		}
	case "os":
		if osPkgBlocking[fn.Name()] {
			return "os." + fn.Name() + " (file I/O)", true
		}
	case "io":
		if fn.Name() == "Copy" || fn.Name() == "ReadAll" {
			return "io." + fn.Name() + " (I/O)", true
		}
	case "net":
		if fn.Name() == "Dial" || fn.Name() == "DialTimeout" || fn.Name() == "Listen" {
			return "net." + fn.Name() + " (network I/O)", true
		}
	case "net/http":
		if fn.Name() == "Get" || fn.Name() == "Post" || fn.Name() == "Head" || fn.Name() == "PostForm" {
			return "http." + fn.Name() + " (network I/O)", true
		}
	}
	return "", false
}

var osFileBlocking = map[string]bool{
	"Read": true, "ReadAt": true, "Write": true, "WriteAt": true,
	"WriteString": true, "Sync": true, "Close": true, "Truncate": true,
	"Seek": true,
}

var osPkgBlocking = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true, "Rename": true,
	"Remove": true, "RemoveAll": true, "Mkdir": true, "MkdirAll": true,
	"MkdirTemp": true, "Stat": true, "Chmod": true, "Link": true,
	"Symlink": true,
}
