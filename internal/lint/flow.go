package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"

	"r3d/internal/detmap"
)

// This file is the fact base of the whole-program analyzers: dettaint,
// the lock suite (mutexguard, lockorder, blockhold) and the
// goroutine-lifecycle suite (goleak, chanown, stopflow). One annotation
// pass collects the contracts. Then each declaration is visited once:
// a scan of its whole body (declscan.go) records the facts that hold
// wherever they sit — function references, map iterations, channel
// allocations and the sends, closes and forwards of parameters — and
// one walker (flowwalk.go) records the flow-sensitive ones along the
// live paths: the lock facts — guarded-field accesses, lock
// acquisitions, blocking operations and call sites, each with the
// locks-held set at that program point — the goroutine facts — loops
// with their blocking operations and stop-channel select coverage, `go`
// spawns with WaitGroup-join proofs, and the stop signals passed to
// each call — and the channel operations with chanown's channel state.
// flowprop.go adds the interprocedural lock layer over the call sites.
// The base is built once per run, by the first analyzer that asks for
// it (ModulePass.facts).
//
// Annotation grammar (ordinary comments, distinct from //lint:ignore
// suppressions):
//
//	// r3dlint:guardedby <mutex>
//	    on a struct field (or a package-level var): every read of the
//	    annotated state must happen with <mutex> held (RLock suffices
//	    for an RWMutex), every write with it held exclusively. <mutex>
//	    names a sibling field of the same struct or a package-level
//	    mutex variable.
//
//	// r3dlint:blocks <reason>
//	    on a function declaration: calling this function is a blocking
//	    operation (e.g. a whole-grid thermal solve), so reaching it
//	    while a mutex is held is a blockhold finding in the caller.
//
//	// r3dlint:daemon <reason>
//	    on a function declaration, or on/above a `go` statement: the
//	    spawned goroutine is an intentional process-lifetime daemon, so
//	    goleak does not require a termination proof for it.
//
//	// r3dlint:closer <reason>
//	    on a function declaration: the channel's allocating owner hands
//	    the channel to this function to close, so chanown accepts its
//	    close of a parameter (or a foreign field) as sanctioned.
//
// Mutex identity is type-scoped: s.mu and t.mu on two instances of the
// same struct resolve to the same identity. That conflates instances —
// the standard @GuardedBy approximation — and is documented in the
// README; per-instance aliasing (a *sync.Mutex stored into a local and
// locked through it) is not tracked.
//
// The termination facts are deliberately conservative: a `for` with no
// condition and a `for range` over a channel are both treated as
// never-terminating unless a select clause inside the loop receives
// from a stop-like channel and exits the loop (return or labeled
// break). A conditional `return` buried in an endless loop is not
// accepted as a termination proof — that is the documented
// over-approximation that keeps the analysis decidable.
const (
	guardedByMarker = "r3dlint:guardedby"
	blocksMarker    = "r3dlint:blocks"
	daemonMarker    = "r3dlint:daemon"
	closerMarker    = "r3dlint:closer"
)

// A lockID canonically names one mutex: "pkg/path.Type.field" for a
// struct field (including an embedded sync.Mutex), "pkg/path.name" for
// a package-level variable.
type lockID string

// display shortens a lockID for findings: the part after the last
// path separator, e.g. "experiment.Session.thermalMu".
func (id lockID) display() string {
	s := string(id)
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// lockMode is the strength a mutex is held with at a program point.
type lockMode int

const (
	lockNone  lockMode = iota
	lockRead           // RLock held
	lockWrite          // Lock held (exclusive; satisfies read accesses too)
)

// heldSet maps each held mutex to the strongest mode it is held with.
// The walker mutates one set in place along straight-line code and
// clones it at branch points.
type heldSet map[lockID]lockMode

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	//lint:ignore maporder map-to-map copy; each key written exactly once, order-independent
	for k, v := range h {
		c[k] = v
	}
	return c
}

// acquire records holding id at least at mode (an RLock never weakens
// an already-exclusive hold).
func (h heldSet) acquire(id lockID, mode lockMode) {
	if h[id] < mode {
		h[id] = mode
	}
}

// unionHeld returns entry ∪ h with the stronger mode winning; a nil
// entry is ⊤ (unknown-yet in the fixpoint) and absorbs everything.
func unionHeld(entry, h heldSet) heldSet {
	if entry == nil {
		return nil
	}
	out := entry.clone()
	//lint:ignore maporder max-merge touches each key independently; order cannot affect the result
	for k, v := range h {
		if out[k] < v {
			out[k] = v
		}
	}
	return out
}

// intersectHeld returns the meet of two concrete held-sets: a mutex is
// in the result only if both sides hold it, at the weaker mode.
func intersectHeld(a, b heldSet) heldSet {
	out := heldSet{}
	//lint:ignore maporder per-key meet; each result entry depends only on its own key in a and b
	for k, v := range a {
		if bv, ok := b[k]; ok {
			if bv < v {
				v = bv
			}
			out[k] = v
		}
	}
	return out
}

func heldEqual(a, b heldSet) bool {
	if len(a) != len(b) {
		return false
	}
	//lint:ignore maporder pure equality probe; no observable order dependence
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// flowState is the walker's state at a program point: the locks held,
// and chanown's channel state — where each channel may have been closed
// on some path here, and which locals must still be nil. The walker
// mutates one state in place along straight-line code and clones it at
// branch points. The channel maps stay nil until a channel needs them.
type flowState struct {
	held   heldSet
	closed map[string]*closedAt
	nilch  map[string]bool
}

func newFlowState() *flowState { return &flowState{held: heldSet{}} }

func (st *flowState) clone() *flowState {
	return &flowState{held: st.held.clone(), closed: maps.Clone(st.closed), nilch: maps.Clone(st.nilch)}
}

// setClosed records that the channel key may be closed, as at says.
func (st *flowState) setClosed(key string, at *closedAt) {
	if st.closed == nil {
		st.closed = map[string]*closedAt{}
	}
	st.closed[key] = at
}

// setNil records that the channel key must be nil.
func (st *flowState) setNil(key string) {
	if st.nilch == nil {
		st.nilch = map[string]bool{}
	}
	st.nilch[key] = true
}

// reassign records a new value stored into the channel key: it is open,
// and nil when isNil.
func (st *flowState) reassign(key string, isNil bool) {
	delete(st.closed, key)
	delete(st.nilch, key)
	if isNil {
		st.setNil(key)
	}
}

// join merges into st the state of another path that reaches the same
// point: a lock is held only if both paths hold it, at the weaker mode.
func (st *flowState) join(o *flowState) {
	st.held = intersectHeld(st.held, o.held)
	st.joinChans(o)
}

// joinChans merges o's channel state into st: a channel may be closed
// if either path may have closed it (the earlier close wins, so
// messages are stable), and must be nil only if both say so.
func (st *flowState) joinChans(o *flowState) {
	for _, k := range detmap.SortedKeys(o.closed) {
		at := o.closed[k]
		if cur, ok := st.closed[k]; ok && cur != at {
			at = &closedAt{a: cur, b: at}
		}
		st.setClosed(k, at)
	}
	for _, k := range detmap.SortedKeys(st.nilch) {
		if !o.nilch[k] {
			delete(st.nilch, k)
		}
	}
}

// replace sets st to src, the join of the paths that continue past a
// branch: a channel every one of them set to nil is nil after it.
func (st *flowState) replace(src *flowState) {
	*st = *src
}

// sortedHeld returns the held mutexes in canonical order for messages.
func sortedHeld(h heldSet) []lockID {
	return detmap.SortedKeys(h)
}

// guardDecl is one parsed r3dlint:guardedby annotation.
type guardDecl struct {
	guard  lockID
	target string // display name of the guarded state, e.g. "Engine.results"
}

// callKind distinguishes how a call site runs relative to the caller's
// locks: a plain call inherits them, a `go` call starts with none, and
// a deferred call runs at function exit where the held-set is no longer
// tracked.
type callKind int

const (
	callNormal callKind = iota
	callGo
	callDefer
)

// callSite is one call with the locks held at it.
type callSite struct {
	callee     *types.Func
	candidates []*types.Func // interface-dispatch fallback targets
	pos        token.Pos
	held       heldSet
	kind       callKind
	// stopArgs records stop-like channel/context arguments passed to
	// the callee: forwarding a stop source into a blocking callee
	// discharges the caller's stop-propagation obligation.
	stopArgs []stopRecv
}

// guardAccess is one read or write of guarded state.
type guardAccess struct {
	target *types.Var // the annotated field or package var
	pos    token.Pos
	write  bool
	held   heldSet
}

// lockAcquire is one Lock/RLock call, with the locks already held when
// it executes (the lock-order edges' sources).
type lockAcquire struct {
	id   lockID
	pos  token.Pos
	held heldSet
}

// blockOp is one directly blocking operation: a channel operation, a
// select without default, a WaitGroup/Cond wait, or blocking I/O. A
// finite wait (a sleep, local file I/O) completes on its own, so a stop
// signal cannot shorten it; the goroutine analyzers skip those.
type blockOp struct {
	desc   string
	pos    token.Pos
	held   heldSet
	finite bool
}

// firstIndefinite returns the description of the first blocking
// operation that can wait until another goroutine acts.
func firstIndefinite(ops []blockOp) (string, bool) {
	for _, b := range ops {
		if !b.finite {
			return b.desc, true
		}
	}
	return "", false
}

// stopRecv is one stop-like channel: received in a select clause, or
// passed as a call argument.
type stopRecv struct {
	name string // rendered channel expression, e.g. "stop", "cfg.Stop", "ctx.Done()"
	// root is the object the channel expression is rooted at (a
	// parameter, for the stopflow obligation match); field names the
	// struct field when the channel is reached through one.
	root       types.Object
	field      string
	terminates bool // the clause provably exits the loop (return or labeled break)
}

// loop is one for/range loop with what the goroutine analyzers need:
// whether it can run forever, what blocks inside it, which stop
// channels its selects observe, and which calls it makes. Operations
// inside a nested loop belong to the innermost one only.
type loop struct {
	pos       token.Pos
	desc      string // "endless for loop", "for loop", "range over channel", "range loop"
	unbounded bool   // `for` without a condition, or range over a channel
	blocks    []blockOp
	stops     []stopRecv
	calls     []*callSite
}

// covered reports whether the loop has a select clause that receives a
// stop-like channel and exits the loop.
func (l *loop) covered() bool {
	for _, s := range l.stops {
		if s.terminates {
			return true
		}
	}
	return false
}

// spawn is one `go` statement.
type spawn struct {
	pos    token.Pos
	target *types.Func // named callee (nil when a literal or func value is spawned)
	lit    *fnNode     // node of a spawned function literal
	joined bool        // proved joined: body Done()s a WaitGroup Wait-ed in the spawner's scope
}

// fnNode is the walker's output for one function body. Function
// literals get their own node with an empty entry held-set: a literal
// typically runs on a fresh goroutine or at defer time, where the
// enclosing function's locks are not (or no longer) held. top points at
// the enclosing top-level declaration (self for declarations), which
// defines the "spawner's scope" for WaitGroup-join proofs.
type fnNode struct {
	fn       *types.Func // nil for function literals
	sig      *types.Signature
	name     string // display name for chains; a literal is its parent's name + ".func"
	pos      token.Pos
	pkg      *Package
	top      *fnNode
	accesses []guardAccess
	acquires []lockAcquire
	blocks   []blockOp // every blocking op, including those inside loops
	calls    []*callSite
	loops    []*loop
	spawns   []*spawn
	wgDone   []string // WaitGroup identities Done'd (incl. deferred)
	wgWait   []string // WaitGroup identities Wait-ed (incl. deferred)
	chanOps  []chanOp // in walk order

	// The declaration scan's facts (declscan.go), on declaration nodes
	// only: they cover the whole body, nested literals and dead code
	// included.
	refs      []FuncRef
	mapRanges []token.Pos     // map iterations other than the key-collection loop
	allocs    map[string]bool // channel identities made in the declaration
	paramUses []paramUse      // in source order
}

// A paramUse is a send on, close of or forward of one of a declaration's
// parameters: the raw material of chanown's summaries.
type paramUse struct {
	param int    // parameter index
	name  string // parameter name, for chains
	op    string // "send" or "close"; "" for a forward
	// A forward passes the parameter to callee as argument arg.
	callee *types.Func
	arg    int
}

// chanOpKind says what a chanOp does to its channel.
type chanOpKind int

const (
	opSend chanOpKind = iota
	opRecv
	opRange
	opClose
	opDeferClose
	opPass // passed to a call, whose callee may close it or send on it
)

// A chanOp is one channel operation on a walked path, with chanown's
// channel state just before it.
type chanOp struct {
	kind   chanOpKind
	ch     chanRef
	pos    token.Pos
	closed *closedAt // where the channel may have been closed; nil when open
	isNil  bool      // the channel must be nil here, and the op is not a select case
	// opPass: the channel is argument arg of a call to callee.
	callee *types.Func
	arg    int
}

// closedAt says where a channel may have been closed on the paths to a
// program point. A close node is the close at pos. A call node stands
// for pos when callee closes its parameter arg and for prev when it
// does not: only the summaries built over the whole base tell which,
// so chanown resolves the node. A join node (a and b set) takes the
// earlier close of its two paths. Nodes are immutable and shared
// between paths.
type closedAt struct {
	pos    token.Pos
	callee *types.Func
	arg    int
	prev   *closedAt
	a, b   *closedAt
}

// annErr is a malformed annotation, reported by the check it belongs
// to.
type annErr struct {
	pos   token.Pos
	check string // "mutexguard", "goleak" or "chanown"
	msg   string
}

// factBase is the whole-module fact base shared by the whole-program
// analyzers.
type factBase struct {
	fset       *token.FileSet
	nodes      []*fnNode // declared functions and literals, position order
	byFn       map[*types.Func]*fnNode
	initRefs   map[*Package][]FuncRef // references in package-level initializers
	guards     map[*types.Var]guardDecl
	blocksAnn  map[*types.Func]string  // r3dlint:blocks reason per function
	daemonFn   map[*types.Func]bool    // r3dlint:daemon on a declaration
	daemonLine map[string]map[int]bool // file → lines carrying a daemon marker
	closerFn   map[*types.Func]bool    // r3dlint:closer on a declaration
	annErrs    []annErr
	valueRef   map[*types.Func]bool // functions referenced as values (escape analysis)
	// entry and callers are the interprocedural lock layer
	// (flowprop.go): the locks guaranteed held on entry to each node,
	// and each node's observed call sites.
	entry   map[*fnNode]heldSet
	callers map[*fnNode][]callerSite
}

// buildFacts collects the annotations, scans and walks every function
// body of the module and derives the interprocedural layer.
func buildFacts(pkgs []*Package) *factBase {
	fb := &factBase{
		fset:       fsetOf(pkgs),
		byFn:       map[*types.Func]*fnNode{},
		initRefs:   map[*Package][]FuncRef{},
		guards:     map[*types.Var]guardDecl{},
		blocksAnn:  map[*types.Func]string{},
		daemonFn:   map[*types.Func]bool{},
		daemonLine: map[string]map[int]bool{},
		closerFn:   map[*types.Func]bool{},
		valueRef:   map[*types.Func]bool{},
	}
	for _, pkg := range pkgs {
		fb.collectAnnotations(pkg)
	}
	sc := newScanner(pkgs)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok || d.Body == nil {
						continue
					}
					n := &fnNode{fn: obj, name: obj.Name(), pos: d.Pos(), pkg: pkg}
					n.sig, _ = obj.Type().(*types.Signature)
					n.top = n
					fb.nodes = append(fb.nodes, n)
					fb.byFn[obj] = n
					sc.scan(pkg, n, d.Body, declParams(pkg, d))
					w := &walker{fb: fb, pkg: pkg, ir: sc.ir, node: n, params: map[*types.Var]bool{}}
					addParams(pkg, w.params, d.Recv, d.Type.Params)
					w.walkStmt(d.Body, newFlowState())
				case *ast.GenDecl:
					vars := &fnNode{} // collects the initializers' references
					for _, spec := range d.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							for _, v := range vs.Values {
								sc.scan(pkg, vars, v, nil)
							}
						}
					}
					fb.initRefs[pkg] = append(fb.initRefs[pkg], vars.refs...)
				}
			}
		}
	}
	sort.Slice(fb.nodes, func(i, j int) bool { return fb.nodes[i].pos < fb.nodes[j].pos })
	fb.resolveJoins()
	fb.propagateEntryHeld()
	return fb
}

// facts returns the run's fact base, building it for the first
// analyzer that asks and sharing it with the rest.
func (mp *ModulePass) facts() *factBase {
	if mp.flow.fb == nil {
		mp.flow.fb = newFactBase(mp.Pkgs)
	}
	return mp.flow.fb
}

// newFactBase is buildFacts behind a variable, so a test can count the
// builds of a run.
var newFactBase = buildFacts

// reportAnnErrs reports the malformed annotations that belong to the
// pass's analyzer.
func (fb *factBase) reportAnnErrs(mp *ModulePass) {
	for _, e := range fb.annErrs {
		if e.check == mp.Analyzer.Name {
			mp.Reportf(e.pos, "%s", e.msg)
		}
	}
}

// flowCache holds one run's fact base; RunDirStats hands the same
// cache to every module pass.
type flowCache struct{ fb *factBase }

// collectAnnotations parses the four markers of pkg: guardedby on
// struct fields and package vars, blocks/daemon/closer on function
// declarations, and free-standing daemon comments by file and line for
// the statement-adjacent form.
func (fb *factBase) collectAnnotations(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
				if fn == nil {
					continue
				}
				if reason, ok := markerIn(blocksMarker, d.Doc); ok {
					if reason == "" {
						reason = "annotated blocking operation"
					}
					fb.blocksAnn[fn] = reason
				}
				// Malformed daemon markers are reported by the comment scan
				// below (a declaration doc is a comment too); only a valid
				// reason registers the declaration form here.
				if reason, ok := markerIn(daemonMarker, d.Doc); ok && reason != "" {
					fb.daemonFn[fn] = true
				}
				if reason, ok := markerIn(closerMarker, d.Doc); ok {
					if reason == "" {
						fb.annErrs = append(fb.annErrs, annErr{pos: d.Pos(), check: "chanown",
							msg: "malformed annotation: want // r3dlint:closer <reason>"})
					} else {
						fb.closerFn[fn] = true
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if st, ok := s.Type.(*ast.StructType); ok {
							fb.collectFieldGuards(pkg, s, st)
						}
					case *ast.ValueSpec:
						fb.collectVarGuard(pkg, d, s)
					}
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, daemonMarker)
				if !ok {
					continue
				}
				if strings.TrimSpace(rest) == "" {
					fb.annErrs = append(fb.annErrs, annErr{pos: c.Pos(), check: "goleak",
						msg: "malformed annotation: want // r3dlint:daemon <reason>"})
					continue
				}
				pos := fb.fset.Position(c.Pos())
				lines := fb.daemonLine[pos.Filename]
				if lines == nil {
					lines = map[int]bool{}
					fb.daemonLine[pos.Filename] = lines
				}
				lines[pos.Line] = true
			}
		}
	}
}

// markerIn scans the comment groups for a line starting with marker and
// returns the text after it.
func markerIn(marker string, groups ...*ast.CommentGroup) (string, bool) {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if rest, ok := strings.CutPrefix(text, marker); ok {
				return strings.TrimSpace(rest), true
			}
		}
	}
	return "", false
}

// collectFieldGuards registers the guardedby annotations of one struct
// declaration. The named mutex must be a sibling field of mutex type or
// a package-level mutex variable.
func (fb *factBase) collectFieldGuards(pkg *Package, ts *ast.TypeSpec, st *ast.StructType) {
	for _, field := range st.Fields.List {
		spec, ok := markerIn(guardedByMarker, field.Doc, field.Comment)
		if !ok {
			continue
		}
		name := firstField(spec)
		if name == "" {
			fb.annErrs = append(fb.annErrs, annErr{pos: field.Pos(), check: "mutexguard", msg: "malformed annotation: want // r3dlint:guardedby <mutex>"})
			continue
		}
		id, ok := resolveGuard(pkg, ts, st, name)
		if !ok {
			fb.annErrs = append(fb.annErrs, annErr{pos: field.Pos(), check: "mutexguard",
				msg: fmt.Sprintf("r3dlint:guardedby names %q, which is neither a sibling mutex field of %s nor a package-level mutex", name, ts.Name.Name),
			})
			continue
		}
		for _, ident := range field.Names {
			if v, ok := pkg.Info.Defs[ident].(*types.Var); ok {
				fb.guards[v] = guardDecl{guard: id, target: ts.Name.Name + "." + ident.Name}
			}
		}
	}
}

// collectVarGuard registers a guardedby annotation on a package-level
// var declaration (guarding global state with a global mutex).
func (fb *factBase) collectVarGuard(pkg *Package, d *ast.GenDecl, vs *ast.ValueSpec) {
	spec, ok := markerIn(guardedByMarker, vs.Doc, vs.Comment, d.Doc)
	if !ok {
		return
	}
	name := firstField(spec)
	if name == "" {
		fb.annErrs = append(fb.annErrs, annErr{pos: vs.Pos(), check: "mutexguard", msg: "malformed annotation: want // r3dlint:guardedby <mutex>"})
		return
	}
	id, ok := packageMutex(pkg, name)
	if !ok {
		fb.annErrs = append(fb.annErrs, annErr{pos: vs.Pos(), check: "mutexguard",
			msg: fmt.Sprintf("r3dlint:guardedby names %q, which is not a package-level mutex in %s", name, pkg.Types.Name()),
		})
		return
	}
	for _, ident := range vs.Names {
		if v, ok := pkg.Info.Defs[ident].(*types.Var); ok {
			fb.guards[v] = guardDecl{guard: id, target: pkg.Types.Name() + "." + ident.Name}
		}
	}
}

func firstField(s string) string {
	fs := strings.Fields(s)
	if len(fs) == 0 {
		return ""
	}
	return fs[0]
}

// resolveGuard resolves a guardedby mutex name against the annotated
// struct's sibling fields, then the package scope.
func resolveGuard(pkg *Package, ts *ast.TypeSpec, st *ast.StructType, name string) (lockID, bool) {
	for _, f := range st.Fields.List {
		for _, ident := range f.Names {
			if ident.Name != name {
				continue
			}
			v, ok := pkg.Info.Defs[ident].(*types.Var)
			if !ok || !isMutex(v.Type()) {
				return "", false
			}
			return lockID(pkg.Path + "." + ts.Name.Name + "." + name), true
		}
		// An embedded sync.Mutex can be named by its type name.
		if len(f.Names) == 0 && embeddedName(f.Type) == name {
			if tv, ok := pkg.Info.Types[f.Type]; ok && isMutex(tv.Type) {
				return lockID(pkg.Path + "." + ts.Name.Name + "." + name), true
			}
		}
	}
	return packageMutex(pkg, name)
}

// packageMutex resolves name to a package-level mutex variable.
func packageMutex(pkg *Package, name string) (lockID, bool) {
	v, ok := pkg.Types.Scope().Lookup(name).(*types.Var)
	if !ok || !isMutex(v.Type()) {
		return "", false
	}
	return lockID(pkg.Path + "." + name), true
}

// embeddedName returns the bare type name of an embedded field.
func embeddedName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.StarExpr:
		return embeddedName(e.X)
	}
	return ""
}

// isMutex reports whether t (possibly behind a pointer) is sync.Mutex
// or sync.RWMutex.
func isMutex(t types.Type) bool {
	named, ok := derefNamed(t)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && (obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// daemonAt reports whether a spawn at pos is daemon-annotated at the
// statement (marker on the `go` line or the line above) or, when a
// named function is spawned, on its declaration.
func (fb *factBase) daemonAt(pos token.Pos, target *types.Func) bool {
	if target != nil && fb.daemonFn[target] {
		return true
	}
	pp := fb.fset.Position(pos)
	lines := fb.daemonLine[pp.Filename]
	return lines[pp.Line] || lines[pp.Line-1]
}

// spawnBody returns the node a spawn runs, or nil for a stdlib or
// func-value spawn.
func (fb *factBase) spawnBody(sp *spawn) *fnNode {
	if sp.lit != nil {
		return sp.lit
	}
	return fb.byFn[sp.target]
}

// resolveJoins marks spawns whose body Done()s a WaitGroup that some
// function in the spawner's top-level declaration Wait()s — the "joined
// in the spawner's scope" termination proof.
func (fb *factBase) resolveJoins() {
	waits := map[*fnNode]map[string]bool{}
	for _, n := range fb.nodes {
		if len(n.wgWait) == 0 {
			continue
		}
		m := waits[n.top]
		if m == nil {
			m = map[string]bool{}
			waits[n.top] = m
		}
		for _, k := range n.wgWait {
			m[k] = true
		}
	}
	for _, n := range fb.nodes {
		for _, sp := range n.spawns {
			body := fb.spawnBody(sp)
			if body == nil {
				continue
			}
			for _, k := range body.wgDone {
				if waits[n.top][k] {
					sp.joined = true
					break
				}
			}
		}
	}
}
