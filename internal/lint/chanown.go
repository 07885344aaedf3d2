package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
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
//
// The analyzer reads the fact base: the walker records every channel
// operation on a live path with the channel state before it, and the
// declaration scan records each declaration's allocations and the
// sends, closes and forwards of its parameters.
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

// chanCheck resolves recorded channel states against the summaries.
type chanCheck struct {
	mp     *ModulePass
	fb     *factBase
	sums   map[*types.Func]*chanSummary
	closed map[*closedAt]token.Pos // resolved states; NoPos when open
}

func runChanOwn(mp *ModulePass) {
	fb := mp.facts()
	fb.reportAnnErrs(mp)
	c := &chanCheck{mp: mp, fb: fb, sums: buildChanSummaries(fb), closed: map[*closedAt]token.Pos{}}
	for _, n := range fb.nodes {
		deferred := map[string]bool{} // channels the body already defers closing
		for _, op := range n.chanOps {
			c.check(n.top, op, deferred)
		}
	}
}

// check reports one channel operation of a body of the declaration top.
func (c *chanCheck) check(top *fnNode, op chanOp, deferred map[string]bool) {
	mp, ref := c.mp, op.ch
	first := c.closedPos(op.closed)
	closed := first.IsValid()
	switch op.kind {
	case opSend:
		if closed {
			mp.Reportf(op.pos, "send on %s after close at %s", ref.disp, c.shortPos(first))
		}
		if op.isNil {
			mp.Reportf(op.pos, "send on nil channel %s blocks forever (not in a select)", ref.disp)
		}
	case opRecv:
		if op.isNil {
			mp.Reportf(op.pos, "receive from nil channel %s blocks forever (not in a select)", ref.disp)
		}
	case opRange:
		if op.isNil {
			mp.Reportf(op.pos, "range over nil channel %s blocks forever", ref.disp)
		}
	case opClose:
		c.checkOwner(top, op)
		if closed {
			mp.Reportf(op.pos, "second close of %s on this path (first close at %s)", ref.disp, c.shortPos(first))
		}
	case opDeferClose:
		c.checkOwner(top, op)
		if deferred[ref.key] {
			mp.Reportf(op.pos, "second deferred close of %s", ref.disp)
		}
		deferred[ref.key] = true
	case opPass:
		sum, ok := c.sums[op.callee]
		if !ok || !closed {
			return
		}
		if chain, closes := sum.closes[op.arg]; closes {
			mp.Reportf(op.pos, "passes %s, closed at %s, to %s which closes it again (%s)",
				ref.disp, c.shortPos(first), op.callee.Name(), chain)
		} else if chain, sends := sum.sends[op.arg]; sends {
			mp.Reportf(op.pos, "passes %s, closed at %s, to %s which sends on it (%s)",
				ref.disp, c.shortPos(first), op.callee.Name(), chain)
		}
	}
}

// checkOwner reports a close by anything but the channel's owner.
func (c *chanCheck) checkOwner(top *fnNode, op chanOp) {
	ref, closer := op.ch, c.fb.closerFn[top.fn]
	switch ref.kind {
	case crParam:
		if !closer {
			c.mp.Reportf(op.pos,
				"close of channel parameter %s: the allocating owner closes; if the owner hands it off here, annotate the declaration: // r3dlint:closer <reason>",
				ref.disp)
		}
	case crField:
		recv := recvNamed(top.fn)
		ownMethod := recv != nil && ref.named != nil && recv.Obj() == ref.named.Obj()
		if !ownMethod && !top.allocs[ref.key] && !closer {
			c.mp.Reportf(op.pos,
				"close of %s outside its owning type: only the allocator, a method of %s, or an annotated // r3dlint:closer may close it",
				ref.disp, ref.named.Obj().Name())
		}
	case crPkgVar:
		if ref.foreign && !closer {
			c.mp.Reportf(op.pos, "close of package-level channel %s from another package", ref.disp)
		}
	}
}

// closedPos resolves a recorded may-closed state: the position of the
// earliest close it stands for, or NoPos when the channel is open.
func (c *chanCheck) closedPos(at *closedAt) token.Pos {
	if at == nil {
		return token.NoPos
	}
	if p, ok := c.closed[at]; ok {
		return p
	}
	p := at.pos
	switch {
	case at.a != nil:
		p = c.closedPos(at.a)
		if pb := c.closedPos(at.b); !p.IsValid() || pb.IsValid() && pb < p {
			p = pb
		}
	case at.callee != nil:
		if sum := c.sums[at.callee]; sum == nil || sum.closes[at.arg] == "" {
			p = c.closedPos(at.prev)
		}
	}
	c.closed[at] = p
	return p
}

// shortPos renders a position for inclusion inside messages: base
// filename and line, enough to locate the earlier event in the same
// report.
func (c *chanCheck) shortPos(pos token.Pos) string {
	p := c.mp.Fset.Position(pos)
	return filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)
}

// addParams adds the parameters (and receiver) in groups to params.
func addParams(pkg *Package, params map[*types.Var]bool, groups ...*ast.FieldList) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, f := range g.List {
			for _, name := range f.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
					params[v] = true
				}
			}
		}
	}
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
	return isChanExpr(info, e)
}

// resolveChan resolves an expression denoting a channel to its
// type-scoped identity. A local variable in params is a parameter.
func resolveChan(pkg *Package, params map[*types.Var]bool, x ast.Expr) (chanRef, bool) {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		if obj == nil {
			obj = pkg.Info.Defs[x]
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
				foreign: v.Pkg().Path() != pkg.Path,
			}, true
		}
		kind := crLocal
		if params[v] {
			kind = crParam
		}
		return chanRef{key: "local:" + posKey(v.Pos()), disp: v.Name(), kind: kind}, true
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[x]; ok && s.Kind() == types.FieldVal {
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
			if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil {
					return chanRef{
						key:  "pkgvar:" + v.Pkg().Path() + "." + v.Name(),
						disp: v.Pkg().Name() + "." + v.Name(), kind: crPkgVar,
						foreign: v.Pkg().Path() != pkg.Path,
					}, true
				}
			}
		}
		return chanRef{}, false
	case *ast.StarExpr:
		return resolveChan(pkg, params, x.X)
	}
	return chanRef{}, false
}

func posKey(p token.Pos) string {
	return "#" + strconv.Itoa(int(p))
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

// buildChanSummaries computes, by fixpoint over the declarations'
// recorded parameter uses in position order, which channel-typed
// parameters each function closes or sends on — directly or by
// forwarding the parameter to a callee that does. A parameter keeps the
// first chain found for it.
func buildChanSummaries(fb *factBase) map[*types.Func]*chanSummary {
	sums := map[*types.Func]*chanSummary{}
	for _, n := range fb.nodes {
		if n.fn != nil {
			sums[n.fn] = &chanSummary{closes: map[int]string{}, sends: map[int]string{}}
		}
	}
	add := func(m map[int]string, i int, chain string) bool {
		if _, has := m[i]; has {
			return false
		}
		m[i] = chain
		return true
	}
	for changed := true; changed; {
		changed = false
		for _, n := range fb.nodes {
			if n.fn == nil {
				continue
			}
			sum := sums[n.fn]
			for _, u := range n.paramUses {
				switch {
				case u.op == "send":
					changed = add(sum.sends, u.param, n.name+" → send("+u.name+")") || changed
				case u.op == "close":
					changed = add(sum.closes, u.param, n.name+" → close("+u.name+")") || changed
				default:
					csum, ok := sums[u.callee]
					if !ok {
						continue
					}
					if chain, closes := csum.closes[u.arg]; closes {
						changed = add(sum.closes, u.param, n.name+" → "+chain) || changed
					}
					if chain, sends := csum.sends[u.arg]; sends {
						changed = add(sum.sends, u.param, n.name+" → "+chain) || changed
					}
				}
			}
		}
	}
	return sums
}
