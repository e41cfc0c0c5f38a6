package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// fixtureChecker type-checks in-memory fixture snippets. One shared
// instance keeps the (source-compiled) stdlib import cache warm across
// tests.
type fixtureChecker struct {
	fset *token.FileSet
	imp  types.Importer
}

var fixtures = func() *fixtureChecker {
	fset := token.NewFileSet()
	return &fixtureChecker{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}()

// run type-checks src as a package with import path pkgPath and runs
// the full suite (suppression pass included) over it.
func (fc *fixtureChecker) run(t *testing.T, pkgPath, src string) []Diagnostic {
	t.Helper()
	f, err := parser.ParseFile(fc.fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: fc.imp}
	pkg, err := conf.Check(pkgPath, fc.fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck fixture: %v", err)
	}
	return RunPackage(fc.fset, []*ast.File{f}, pkg, info, Analyzers())
}

// wantFindings asserts the diagnostics carry exactly the given
// (analyzer, line) pairs, in order.
func wantFindings(t *testing.T, diags []Diagnostic, want ...[2]any) {
	t.Helper()
	if len(diags) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(want), renderDiags(diags))
	}
	for i, w := range want {
		analyzer, line := w[0].(string), w[1].(int)
		if diags[i].Analyzer != analyzer || diags[i].Line != line {
			t.Errorf("finding %d = %s at line %d, want %s at line %d", i, diags[i].Analyzer, diags[i].Line, analyzer, line)
		}
	}
}

func renderDiags(diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestDetWallTime(t *testing.T) {
	t.Run("true positives and clean duration math", func(t *testing.T) {
		diags := fixtures.run(t, "jskernel/internal/fixture", `package fixture

import "time"

func bad() time.Time { return time.Now() }

func alsoBad(f func() <-chan time.Time) {
	_ = time.After(time.Second)
}

func fine(d time.Duration) time.Duration { return d * 2 }

func methodsFine(a, b time.Time) time.Duration { return a.Sub(b) }
`)
		wantFindings(t, diags, [2]any{"detwalltime", 5}, [2]any{"detwalltime", 8})
	})
	t.Run("suppressed with reason", func(t *testing.T) {
		diags := fixtures.run(t, "jskernel/internal/fixture", `package fixture

import "time"

func sup() time.Time {
	return time.Now() //jsk:lint-ignore detwalltime fixture demonstrates a sanctioned exception
}
`)
		wantFindings(t, diags)
	})
	t.Run("function value reference is flagged too", func(t *testing.T) {
		diags := fixtures.run(t, "jskernel/internal/fixture", `package fixture

import "time"

var clock = time.Now
`)
		wantFindings(t, diags, [2]any{"detwalltime", 5})
	})
	t.Run("service layer is allowlisted", func(t *testing.T) {
		// internal/serve lives on the wall clock by design: deadlines and
		// Retry-After hints are promises to real clients.
		diags := fixtures.run(t, "jskernel/internal/serve", `package serve

import "time"

func deadline(budget time.Duration) time.Time { return time.Now().Add(budget) }
`)
		wantFindings(t, diags)
	})
}

func TestDetRand(t *testing.T) {
	t.Run("global draw flagged, seeded stream clean", func(t *testing.T) {
		diags := fixtures.run(t, "jskernel/internal/fixture", `package fixture

import "math/rand"

func bad() int { return rand.Intn(10) }

func good(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}
`)
		wantFindings(t, diags, [2]any{"detrand", 5})
	})
	t.Run("suppressed with reason", func(t *testing.T) {
		diags := fixtures.run(t, "jskernel/internal/fixture", `package fixture

import "math/rand"

func sup() float64 {
	//jsk:lint-ignore detrand fixture demonstrates a sanctioned exception
	return rand.Float64()
}
`)
		wantFindings(t, diags)
	})
}

func TestDetMapIter(t *testing.T) {
	t.Run("unsorted append flagged, append-then-sort clean", func(t *testing.T) {
		diags := fixtures.run(t, "jskernel/internal/fixture", `package fixture

import "sort"

func bad(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func good(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`)
		wantFindings(t, diags, [2]any{"detmapiter", 8})
	})
	t.Run("float accumulation flagged, integer counting clean", func(t *testing.T) {
		diags := fixtures.run(t, "jskernel/internal/fixture", `package fixture

func bad(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}

func count(m map[string]float64) int {
	n := 0
	for range m {
		n++
	}
	return n
}

func intSum(m map[string]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}
`)
		wantFindings(t, diags, [2]any{"detmapiter", 6})
	})
	t.Run("printing and writing flagged", func(t *testing.T) {
		diags := fixtures.run(t, "jskernel/internal/fixture", `package fixture

import (
	"fmt"
	"strings"
)

func bad(m map[string]int) string {
	var sb strings.Builder
	for k, v := range m {
		fmt.Fprintf(&sb, "%s=%d;", k, v)
	}
	return sb.String()
}

func alsoBad(m map[string]int) string {
	var sb strings.Builder
	for k := range m {
		sb.WriteString(k)
	}
	return sb.String()
}
`)
		wantFindings(t, diags, [2]any{"detmapiter", 11}, [2]any{"detmapiter", 19})
	})
	t.Run("map-to-map transfer is clean", func(t *testing.T) {
		diags := fixtures.run(t, "jskernel/internal/fixture", `package fixture

func transfer(src map[string]int) map[string]int {
	dst := make(map[string]int, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}
`)
		wantFindings(t, diags)
	})
	t.Run("suppressed with reason", func(t *testing.T) {
		diags := fixtures.run(t, "jskernel/internal/fixture", `package fixture

func sup(m map[string][]int, key string) []int {
	var out []int
	for k, vs := range m {
		if k != key {
			continue
		}
		//jsk:lint-ignore detmapiter only the single matching key ever appends
		out = append(out, vs...)
	}
	return out
}
`)
		wantFindings(t, diags)
	})
}

func TestDetSelect(t *testing.T) {
	t.Run("multi-way select flagged, deterministic poll clean", func(t *testing.T) {
		diags := fixtures.run(t, "jskernel/internal/fixture", `package fixture

func bad(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

func poll(a chan int) (int, bool) {
	select {
	case v := <-a:
		return v, true
	default:
		return 0, false
	}
}

func blockingRecv(a chan int) int {
	select {
	case v := <-a:
		return v
	}
}
`)
		wantFindings(t, diags, [2]any{"detselect", 4})
	})
	t.Run("suppressed with reason", func(t *testing.T) {
		diags := fixtures.run(t, "jskernel/internal/fixture", `package fixture

func sup(a, b chan int) int {
	//jsk:lint-ignore detselect fixture demonstrates a sanctioned exception
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}
`)
		wantFindings(t, diags)
	})
	t.Run("commands are out of scope", func(t *testing.T) {
		diags := fixtures.run(t, "jskernel/cmd/fixture", `package main

func race(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}
`)
		wantFindings(t, diags)
	})
}

func TestGoroutineScope(t *testing.T) {
	t.Run("go statement flagged outside allowlist", func(t *testing.T) {
		diags := fixtures.run(t, "jskernel/internal/fixture", `package fixture

func bad(f func()) {
	go f()
}
`)
		wantFindings(t, diags, [2]any{"goroutinescope", 4})
	})
	t.Run("scheduler package is allowlisted", func(t *testing.T) {
		diags := fixtures.run(t, "jskernel/internal/sim", `package sim

func runtimeHelper(f func()) {
	go f()
}
`)
		wantFindings(t, diags)
	})
	t.Run("suppressed with reason", func(t *testing.T) {
		diags := fixtures.run(t, "jskernel/internal/fixture", `package fixture

func sup(f func()) {
	go f() //jsk:lint-ignore goroutinescope fixture demonstrates a sanctioned exception
}
`)
		wantFindings(t, diags)
	})
	t.Run("sanctioned serve function passes", func(t *testing.T) {
		// startWorkers is on the audited per-function allowlist for
		// internal/serve: a go statement inside it is sanctioned.
		diags := fixtures.run(t, "jskernel/internal/serve", `package serve

func startWorkers(f func()) {
	go f()
}
`)
		wantFindings(t, diags)
	})
	t.Run("unsanctioned serve goroutine still flags", func(t *testing.T) {
		// The sanction table is per-function, not a package waiver: the
		// same go statement in a function that is not on the list flags,
		// even though startWorkers in the same package is sanctioned.
		diags := fixtures.run(t, "jskernel/internal/serve", `package serve

func startWorkers(f func()) {
	go f()
}

func handleEval(f func()) {
	go f()
}
`)
		wantFindings(t, diags, [2]any{"goroutinescope", 8})
	})
	t.Run("sanctioned name in another package still flags", func(t *testing.T) {
		// The sanction is keyed by (package, function), so reusing the
		// name elsewhere buys nothing.
		diags := fixtures.run(t, "jskernel/internal/fixture", `package fixture

func startWorkers(f func()) {
	go f()
}
`)
		wantFindings(t, diags, [2]any{"goroutinescope", 4})
	})
	t.Run("goroutine in var initializer flags", func(t *testing.T) {
		// go statements outside any declared function (function literals
		// in var initializers) are never sanctioned.
		diags := fixtures.run(t, "jskernel/internal/serve", `package serve

var spawn = func(f func()) {
	go f()
}
`)
		wantFindings(t, diags, [2]any{"goroutinescope", 4})
	})
}

// panicSafeFixture declares just enough of the kernel package's shape
// for the analyzer's type predicates to engage: the Policy interface,
// the Event type, and the two sanctioned wrapper functions.
const panicSafeFixture = `package kernel

type CallContext struct{}
type Verdict struct{}

type Policy interface {
	Evaluate(CallContext) Verdict
}

type Global struct{}

type Event struct {
	Callback func(*Global, any)
}

type Shared struct{ policy Policy }

func (s *Shared) safeEvaluate(ctx CallContext) Verdict {
	return s.policy.Evaluate(ctx) // allowed: the recover-wrapped helper
}

func (s *Shared) leak(ctx CallContext) Verdict {
	return s.policy.Evaluate(ctx) // finding: raw policy call
}

type Kernel struct {
	g      *Global
	shared *Shared
}

func (k *Kernel) dispatchUser(ev *Event) {
	ev.Callback(k.g, nil) // allowed: the recover-wrapped helper
}

func (k *Kernel) raw(ev *Event) {
	ev.Callback(k.g, nil) // finding: bypasses panic isolation
}
`

// panicSafeTypedFixture holds an event's typed callbacks: a func-typed
// field and a tick source behind the kernel's ticker interface.
const panicSafeTypedFixture = `package kernel

type Global struct{}

type ticker interface{ fire(*Global) }

type Event struct {
	timeout func(*Global)
	ticker  ticker
	k       *Kernel
}

type Kernel struct{ g *Global }

func (k *Kernel) confirm(*Event) {}

func (k *Kernel) dispatchUser(ev *Event) {
	ev.timeout(k.g)     // allowed: the recover-wrapped helper
	ev.ticker.fire(k.g) // allowed
}

func (k *Kernel) raw(ev *Event) {
	ev.timeout(k.g)     // finding: bypasses panic isolation
	ev.ticker.fire(k.g) // finding: bypasses panic isolation
	ev.k.confirm(ev)    // a kernel method, not user code
}
`

func TestPanicSafe(t *testing.T) {
	t.Run("raw calls flagged, wrappers allowed", func(t *testing.T) {
		diags := fixtures.run(t, "jskernel/internal/kernel", panicSafeFixture)
		wantFindings(t, diags, [2]any{"panicsafe", 23}, [2]any{"panicsafe", 36})
	})
	t.Run("typed event callbacks flagged like Callback", func(t *testing.T) {
		diags := fixtures.run(t, "jskernel/internal/kernel", panicSafeTypedFixture)
		wantFindings(t, diags, [2]any{"panicsafe", 23}, [2]any{"panicsafe", 24})
	})
	t.Run("outside kernel and browser the analyzer stays quiet", func(t *testing.T) {
		diags := fixtures.run(t, "jskernel/internal/policy", strings.Replace(panicSafeFixture, "package kernel", "package policy", 1))
		wantFindings(t, diags)
	})
	t.Run("suppressed with reason", func(t *testing.T) {
		src := strings.Replace(panicSafeFixture,
			"\tev.Callback(k.g, nil) // finding: bypasses panic isolation",
			"\t//jsk:lint-ignore panicsafe fixture demonstrates a sanctioned exception\n\tev.Callback(k.g, nil)", 1)
		src = strings.Replace(src,
			"\treturn s.policy.Evaluate(ctx) // finding: raw policy call",
			"\treturn s.policy.Evaluate(ctx) //jsk:lint-ignore panicsafe fixture demonstrates a sanctioned exception", 1)
		diags := fixtures.run(t, "jskernel/internal/kernel", src)
		wantFindings(t, diags)
	})
}
