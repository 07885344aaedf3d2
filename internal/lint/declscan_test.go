package lint

import (
	"strings"
	"testing"
)

// nodeByName finds a declaration's fact-base node by function name (test
// fixtures keep names unique across the fixture module).
func nodeByName(t *testing.T, fb *factBase, name string) *fnNode {
	t.Helper()
	var found *fnNode
	for _, n := range fb.nodes {
		if n.fn != nil && n.fn.Name() == name {
			if found != nil {
				t.Fatalf("two nodes named %s", name)
			}
			found = n
		}
	}
	if found == nil {
		t.Fatalf("no node named %s", name)
	}
	return found
}

// refTo reports whether the declaration references a function of the
// given name, and whether that reference is a call.
func refTo(n *fnNode, name string) (found, call bool) {
	for _, r := range n.refs {
		if r.Obj.Name() == name {
			return true, r.Call
		}
	}
	return false, false
}

func TestCallGraphRecordsMutualRecursion(t *testing.T) {
	pkgs := checkModuleFixture(t, []fixtureFile{{modelPath, `
package fixture

func Ping(n int) int {
	if n <= 0 {
		return 0
	}
	return Pong(n - 1)
}

func Pong(n int) int { return Ping(n - 1) }
`}})
	fb := buildFacts(pkgs)
	if found, call := refTo(nodeByName(t, fb, "Ping"), "Pong"); !found || !call {
		t.Errorf("Ping → Pong edge: found=%v call=%v, want call edge", found, call)
	}
	if found, call := refTo(nodeByName(t, fb, "Pong"), "Ping"); !found || !call {
		t.Errorf("Pong → Ping edge: found=%v call=%v, want call edge", found, call)
	}
}

func TestCallGraphMethodValueIsAnEdge(t *testing.T) {
	pkgs := checkModuleFixture(t, []fixtureFile{{modelPath, `
package fixture

type Box struct{ v int }

func (b Box) Get() int { return b.v }

// Take passes the method as a value: no call expression, but dispatch
// may still happen later, so the fact base must record the reference.
func Take(b Box) func() int {
	f := b.Get
	return f
}
`}})
	found, call := refTo(nodeByName(t, buildFacts(pkgs), "Take"), "Get")
	if !found {
		t.Fatal("method-value reference Take → Get not recorded")
	}
	if call {
		t.Error("method value recorded as a call; want a value reference")
	}
}

func TestCallGraphFuncLitRefsBelongToEnclosingDecl(t *testing.T) {
	pkgs := checkModuleFixture(t, []fixtureFile{{modelPath, `
package fixture

func helper() int { return 1 }

func Outer() func() int {
	return func() int { return helper() }
}
`}})
	if found, _ := refTo(nodeByName(t, buildFacts(pkgs), "Outer"), "helper"); !found {
		t.Error("reference inside nested function literal not attributed to Outer")
	}
}

func TestCallGraphGenericInstantiationResolvesToOrigin(t *testing.T) {
	pkgs := checkModuleFixture(t, []fixtureFile{{modelPath, `
package fixture

func Map[T any](xs []T, f func(T) T) []T {
	out := make([]T, 0, len(xs))
	for _, x := range xs {
		out = append(out, f(x))
	}
	return out
}

func double(n int) int { return n * 2 }

// Use calls the int instantiation; Pin references an explicit
// instantiation as a value. Both must resolve to the one generic
// declaration node.
func Use(xs []int) []int { return Map(xs, double) }

func Pin() func([]int, func(int) int) []int { return Map[int] }
`}})
	fb := buildFacts(pkgs)
	origin := nodeByName(t, fb, "Map").fn
	use := nodeByName(t, fb, "Use")
	found := false
	for _, r := range use.refs {
		if r.Obj.Name() != "Map" {
			continue
		}
		found = true
		if !r.Call {
			t.Error("instantiated call Use → Map not marked as a call")
		}
		if r.Obj != origin {
			t.Errorf("instantiated call resolves to %v, want the origin declaration object", r.Obj)
		}
	}
	if !found {
		t.Fatal("no Use → Map reference recorded")
	}
	if found, call := refTo(nodeByName(t, fb, "Pin"), "Map"); !found || call {
		t.Errorf("explicit instantiation value: found=%v call=%v, want a non-call reference", found, call)
	}
}

func TestCallGraphGoStmtFuncLitRefsBelongToSpawner(t *testing.T) {
	pkgs := checkModuleFixture(t, []fixtureFile{{modelPath, `
package fixture

func work() int { return 1 }

// Spawn's goroutine body is a function literal: the call it makes must
// be attributed to Spawn, the enclosing declaration.
func Spawn(ch chan int) {
	go func() {
		ch <- work()
	}()
}
`}})
	if found, call := refTo(nodeByName(t, buildFacts(pkgs), "Spawn"), "work"); !found || !call {
		t.Errorf("go-stmt literal call Spawn → work: found=%v call=%v, want a call edge", found, call)
	}
}

func TestCallGraphInterfaceDispatchCandidates(t *testing.T) {
	pkgs := checkModuleFixture(t, []fixtureFile{{modelPath, `
package fixture

type Source interface{ Value() int }

type A struct{}

func (A) Value() int { return 1 }

type B struct{}

func (B) Value() int { return 2 }

func Sample(s Source) int { return s.Value() }
`}})
	n := nodeByName(t, buildFacts(pkgs), "Sample")
	var iface *FuncRef
	for i, r := range n.refs {
		if r.Iface {
			iface = &n.refs[i]
		}
	}
	if iface == nil {
		t.Fatal("interface-method reference in Sample not marked Iface")
	}
	if len(iface.Candidates) != 2 {
		t.Fatalf("%d dispatch candidates, want the 2 module implementations", len(iface.Candidates))
	}
	// Candidates are position-sorted: A.Value precedes B.Value.
	if got := iface.Candidates[0].FullName() + " " + iface.Candidates[1].FullName(); got != "(r3d/internal/fixture.A).Value (r3d/internal/fixture.B).Value" {
		t.Errorf("candidates = %s", got)
	}
}

func TestCallGraphInitRefs(t *testing.T) {
	pkgs := checkModuleFixture(t, []fixtureFile{{modelPath, `
package fixture

func seed() int { return 7 }

var start = seed()
`}})
	fb := buildFacts(pkgs)
	refs := fb.initRefs[pkgs[0]]
	if len(refs) != 1 || refs[0].Obj.Name() != "seed" || !refs[0].Call {
		t.Errorf("InitRefs = %+v, want one call reference to seed", refs)
	}
}

// A reference in dead code after a return still counts: the scan covers
// the whole body, though the walker stops at the return.
func TestCallGraphDeadCodeRefTaints(t *testing.T) {
	pkgs := checkModuleFixture(t, []fixtureFile{
		{"r3d/wrap", `
package wrap

import "time"

func clock() int64 { return time.Now().UnixNano() }

// Stamp reaches clock only from dead code.
func Stamp() int64 {
	return 0
	return clock()
}
`},
		{modelPath, `
package fixture

import "r3d/wrap"

func Now() int64 { return wrap.Stamp() }
`},
	})
	if found, call := refTo(nodeByName(t, buildFacts(pkgs), "Stamp"), "clock"); !found || !call {
		t.Errorf("dead-code call Stamp → clock: found=%v call=%v, want a call reference", found, call)
	}
	fs := Run(pkgs, []*Analyzer{DetTaint})
	wantChecks(t, fs, "dettaint")
	if want := "Stamp → clock → time.Now (wall clock)"; !strings.Contains(fs[0].Message, want) {
		t.Errorf("finding %q does not spell out the taint chain %q", fs[0].Message, want)
	}
}
