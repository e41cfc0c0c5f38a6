package analysis

import (
	"go/ast"
	"go/types"
)

// wallClockFuncs are the package time entry points that observe or wait
// on the real clock. Referencing any of them (call or function value)
// breaks determinism: the same program run twice sees different values,
// which is exactly the implicit clock the kernel exists to remove.
// Duration arithmetic, formatting, and constants (time.Millisecond,
// time.Duration, ParseDuration, ...) remain fine.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// wallClockAllowedPkgs are package-path suffixes where real time is
// legitimate by design. Extend deliberately, with a comment, if another
// wall-clock use case ever appears.
var wallClockAllowedPkgs = []string{
	// The service layer's deadlines, Retry-After hints, circuit-breaker
	// cooldowns and drain timeouts are promises to real HTTP clients, so
	// they must live on the real clock. The simulations it runs stay on
	// virtual time, and nothing wall-clock-derived may appear in a
	// response body (pinned by the serve determinism tests).
	"internal/serve",
	"cmd/jsk-serve",
	// The observability plane lives on the service side of the
	// determinism boundary: its event hub timestamps nothing, but its
	// subscriber wait (Hub.Wait) and SSE keepalives are real-time
	// contracts with live scrape/stream clients. Nothing it computes
	// flows back into an evaluation or a response body — pinned by
	// TestResponseDeterminismAcrossPlaneModes in internal/serve.
	"internal/telemetry",
}

// DetWallTime rejects wall-clock observation outside the allowlist.
var DetWallTime = &Analyzer{
	Name: "detwalltime",
	Doc:  "forbid time.Now/Since/Sleep/After etc.; simulated code must use the virtual clock in internal/sim",
	Applies: func(pkgPath string) bool {
		for _, allowed := range wallClockAllowedPkgs {
			if hasPathSuffix(pkgPath, allowed) {
				return false
			}
		}
		return true
	},
	Run: runDetWallTime,
}

func runDetWallTime(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // method like t.Sub — operates on values, not the clock
			}
			if wallClockFuncs[obj.Name()] {
				p.Reportf(sel.Pos(), "time.%s observes the wall clock; deterministic code must use the virtual clock (internal/sim)", obj.Name())
			}
			return true
		})
	}
}
