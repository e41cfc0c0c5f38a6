// Package analysis is jsk-lint: a suite of static analyzers that turn
// the repository's determinism and kernel-survival conventions into
// machine-checked invariants. JSKernel's security argument (like
// Deterministic Browser's) collapses if any code path can observe wall
// clock time or nondeterministic ordering, so the analyzers reject the
// constructs that silently reintroduce those channels:
//
//   - detwalltime: wall-clock reads (time.Now etc.) outside the
//     allowlist — simulated code must use the virtual clock in
//     internal/sim.
//   - detrand: global math/rand functions — randomness must flow
//     through an explicitly seeded *rand.Rand stream.
//   - detmapiter: ranging over a map while producing order-sensitive
//     output (appends, prints, float accumulation) without a sort.
//   - detselect: select statements with two or more communication
//     cases in internal packages — the runtime picks among ready
//     cases uniformly at random.
//   - goroutinescope: go statements outside the scheduler/runtime
//     allowlist — stray goroutines race the discrete-event loop.
//   - panicsafe: raw Policy.Evaluate calls and raw calls of an event's
//     user code (Event.Callback, its typed callbacks, ticker.fire) that
//     bypass the recover-wrapped helpers (safeEvaluate, dispatchUser).
//
// Intentional exceptions are annotated in source with
//
//	//jsk:lint-ignore <analyzer> <reason>
//
// which suppresses findings of that analyzer on the same line (when
// trailing code) or the next line (when on a line of its own). The
// reason is mandatory; malformed directives are themselves diagnostics,
// so every exception stays explicit and auditable.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding: a position, the analyzer that produced it,
// and a human-readable message.
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the canonical "file:line: [analyzer] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one static check.
type Analyzer struct {
	Name string
	Doc  string
	// Applies filters packages by import path; nil means every package.
	Applies func(pkgPath string) bool
	Run     func(*Pass)
}

// Analyzers returns the full jsk-lint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetWallTime,
		DetRand,
		DetMapIter,
		DetSelect,
		GoroutineScope,
		PanicSafe,
	}
}

// AnalyzerNames returns the valid analyzer names (for directive
// validation and -help output).
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// RunPackage runs the given analyzers over one type-checked package and
// applies the //jsk:lint-ignore suppression pass: suppressed findings
// are dropped, malformed directives become findings of the pseudo
// analyzer "lint-ignore". Diagnostics come back sorted by position.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	sup := parseSuppressions(fset, files, analyzerNameSet())
	for _, a := range analyzers {
		if a.Applies != nil && !a.Applies(pkg.Path()) {
			continue
		}
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Info: info}
		a.Run(pass)
		for _, d := range pass.diags {
			if sup.suppressed(d.Analyzer, d.File, d.Line) {
				continue
			}
			diags = append(diags, d)
		}
	}
	diags = append(diags, sup.malformed...)
	sortDiagnostics(diags)
	return diags
}

func analyzerNameSet() map[string]bool {
	set := make(map[string]bool)
	for _, a := range Analyzers() {
		set[a.Name] = true
	}
	return set
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// hasPathSuffix reports whether pkgPath is path or ends in "/"+path —
// the matching rule for package allowlists, so "internal/sim" covers
// both "jskernel/internal/sim" and a bare "internal/sim".
func hasPathSuffix(pkgPath, path string) bool {
	if pkgPath == path {
		return true
	}
	n := len(pkgPath) - len(path)
	return n > 0 && pkgPath[n-1] == '/' && pkgPath[n:] == path
}
