package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the declaration scan of the fact base: one ast.Inspect
// of each declaration's whole body — nested function literals and dead
// code included — and of each package-level initializer records the
// facts that hold wherever they sit.
//
// The function references are the module's call graph, as dettaint
// reads it. It is deliberately conservative: a reference is recorded
// for every *use* of a function object — a call, a method value, a
// function assigned to a variable or passed as an argument — because a
// referenced function may run later even if the reference site is not
// a call expression. Dynamic dispatch through an interface cannot be
// resolved statically, so interface-method references carry the set of
// concrete module methods that implement the interface as fallback
// candidates. Calls through plain function-typed values (fields,
// variables, parameters) have no callee object at all and produce no
// reference; analyzers that need soundness there must rely on the
// reference recorded where the function value was originally taken.

// A FuncRef is one reference to a function object inside a declaration
// or a package-level initializer.
type FuncRef struct {
	Obj  *types.Func // referenced function or method (module or stdlib)
	Pos  token.Pos
	Call bool // reference is the callee of a call expression
	// Iface marks a selection whose receiver is an interface; Obj is
	// then the interface method and Candidates the concrete module
	// methods dispatch may reach.
	Iface      bool
	Candidates []*types.Func
}

// scanner holds one build's interface resolver and the reference marks
// of the scan in progress. ast.Inspect visits a call before its callee
// and a selection before its selector, so an identifier's marks are set
// by the time the scan reaches it.
type scanner struct {
	ir       *ifaceResolver
	callee   map[*ast.Ident]bool
	ifaceSel map[*ast.Ident]bool
}

func newScanner(pkgs []*Package) *scanner {
	return &scanner{ir: newIfaceResolver(pkgs), callee: map[*ast.Ident]bool{}, ifaceSel: map[*ast.Ident]bool{}}
}

// scan records onto n, in one ast.Inspect of root, its function
// references, its map iterations other than the key-collection loop
// (dettaint's seeds), the channels it makes (chanown's allocating
// owner) and the sends, closes and forwards of the parameters in params
// (chanown's summaries), which maps a declaration's parameters to their
// indices.
func (sc *scanner) scan(pkg *Package, n *fnNode, root ast.Node, params map[*types.Var]int) {
	clear(sc.callee)
	clear(sc.ifaceSel)
	param := func(e ast.Expr) (paramUse, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return paramUse{}, false
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok {
			return paramUse{}, false
		}
		i, ok := params[v]
		return paramUse{param: i, name: v.Name()}, ok
	}
	alloc := func(key string) {
		if n.allocs == nil {
			n.allocs = map[string]bool{}
		}
		n.allocs[key] = true
	}
	allocTo := func(lhs, rhs ast.Expr) {
		if isMakeChan(pkg.Info, rhs) {
			if ref, ok := resolveChan(pkg, nil, lhs); ok {
				alloc(ref.key)
			}
		}
	}
	ast.Inspect(root, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.Ident:
			if obj, ok := pkg.Info.Uses[x].(*types.Func); ok {
				ref := FuncRef{Obj: obj, Pos: x.Pos(), Call: sc.callee[x]}
				if sc.ifaceSel[x] {
					ref.Iface = true
					ref.Candidates = sc.ir.candidates(obj)
				}
				n.refs = append(n.refs, ref)
			}
		case *ast.SelectorExpr:
			if sel, ok := pkg.Info.Selections[x]; ok {
				if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
					sc.ifaceSel[x.Sel] = true
				}
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(x.Fun).(type) {
			case *ast.Ident:
				sc.callee[fun] = true
			case *ast.SelectorExpr:
				sc.callee[fun.Sel] = true
			}
			if arg, ok := closeArg(pkg.Info, x); ok {
				if u, ok := param(arg); ok {
					u.op = "close"
					n.paramUses = append(n.paramUses, u)
				}
			} else if callee := calleeFunc(pkg.Info, x); callee != nil {
				for j, a := range x.Args {
					if u, ok := param(a); ok {
						u.callee, u.arg = callee.Origin(), j
						n.paramUses = append(n.paramUses, u)
					}
				}
			}
		case *ast.SendStmt:
			if u, ok := param(x.Chan); ok {
				u.op = "send"
				n.paramUses = append(n.paramUses, u)
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[x.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !isKeyCollectionLoop(x) {
					n.mapRanges = append(n.mapRanges, x.Pos())
				}
			}
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i, rhs := range x.Rhs {
					allocTo(x.Lhs[i], rhs)
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) == len(x.Values) {
				for i, v := range x.Values {
					allocTo(x.Names[i], v)
				}
			}
		case *ast.CompositeLit:
			// A struct field set to a make is allocated here too.
			tv, ok := pkg.Info.Types[x]
			if !ok {
				break
			}
			named := namedOf(tv.Type)
			if named == nil {
				break
			}
			for _, el := range x.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok || !isMakeChan(pkg.Info, kv.Value) {
					continue
				}
				if id, ok := kv.Key.(*ast.Ident); ok {
					alloc("field:" + packagePathOf(named) + "." + named.Obj().Name() + "." + id.Name)
				}
			}
		}
		return true
	})
}

// declParams maps the parameters of fd to their indices.
func declParams(pkg *Package, fd *ast.FuncDecl) map[*types.Var]int {
	params := map[*types.Var]int{}
	idx := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
				params[v] = idx
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
	return params
}

// ifaceResolver maps interface methods to the concrete module methods
// that may satisfy dynamic dispatch, computed lazily and cached. The
// fact base builds one per run; dettaint's references and the lock
// suite's call sites share it.
type ifaceResolver struct {
	named []*types.Named // every named type declared in the module
	// impls holds each interface's implementers among named, found
	// once for all of its methods.
	impls map[*types.Interface][]*types.Named
	cache map[*types.Func][]*types.Func
}

func newIfaceResolver(pkgs []*Package) *ifaceResolver {
	ir := &ifaceResolver{impls: map[*types.Interface][]*types.Named{}, cache: map[*types.Func][]*types.Func{}}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				ir.named = append(ir.named, named)
			}
		}
	}
	return ir
}

// implementers returns the module's non-interface named types that
// implement iface, by value or by pointer.
func (ir *ifaceResolver) implementers(iface *types.Interface) []*types.Named {
	if impls, ok := ir.impls[iface]; ok {
		return impls
	}
	var impls []*types.Named
	for _, named := range ir.named {
		if !types.IsInterface(named) && (types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
			impls = append(impls, named)
		}
	}
	ir.impls[iface] = impls
	return impls
}

// candidates returns the concrete module methods an interface-method
// call may dispatch to, in declaration order.
func (ir *ifaceResolver) candidates(m *types.Func) []*types.Func {
	if c, ok := ir.cache[m]; ok {
		return c
	}
	var cands []*types.Func
	sig, ok := m.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			for _, named := range ir.implementers(iface) {
				obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok {
					cands = append(cands, fn)
				}
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Pos() < cands[j].Pos() })
	ir.cache[m] = cands
	return cands
}
