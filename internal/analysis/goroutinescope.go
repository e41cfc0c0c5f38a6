package analysis

import "go/ast"

// goroutineAllowedPkgs are package-path suffixes allowed to start
// goroutines anywhere: the discrete-event runtime itself. Everything
// else must schedule work through the simulator — a stray goroutine
// races the event loop with real (nondeterministic) OS scheduling,
// which is precisely the concurrency channel the kernel removes.
var goroutineAllowedPkgs = []string{
	"internal/sim",
}

// goroutineSanctionedFuncs is the audited per-function allowlist: a
// package-path suffix mapped to the named top-level functions (or
// methods) inside it that may contain go statements, each with the
// audit rationale that sanctioned it. This is deliberately *not* a
// package waiver — a go statement anywhere else in these packages still
// flags, so new concurrency must come back through this table and its
// review.
//
// The common shape of a sanctioned function: its goroutines share no
// simulator or kernel state with each other (share-nothing cells, the
// runner.Ordered argument), and they are joined before the function's owner
// considers the work done — nothing outlives the structure that spawned
// it.
var goroutineSanctionedFuncs = map[string]map[string]string{
	"internal/serve": {
		// The evaluation worker pool: each job builds its own
		// environments, jobs arrive over a channel, and the pool is
		// joined (workers.Wait) during Shutdown.
		"startWorkers": "evaluation workers build disjoint environments and join at drain",
		// The HTTP accept loop: net/http requires Serve to run somewhere;
		// it is stopped by http.Server.Shutdown inside Server.Shutdown.
		"Start": "http.Server.Serve background loop, stopped by Shutdown",
		// A bounded WaitGroup wait so graceful drain can respect a
		// context deadline; the goroutine exits as soon as the drain
		// completes or is abandoned.
		"awaitDrain": "bounded drain wait; goroutine exits when jobs finish",
	},
	"internal/telemetry": {
		// The plane's batching flusher: one goroutine draining a bounded
		// channel of telemetry items, joined (<-p.done) by Plane.Close
		// before the hub shuts down. It owns the aggregation maps
		// exclusively; producers only send.
		"start": "single flusher goroutine over a bounded queue, joined by Close",
	},
	"internal/expr/runner": {
		// The sanctioned worker-pool bridge between the deterministic
		// world and OS threads (also annotated in source; listed here so
		// the audit trail lives in one table). Map is built on it.
		"Ordered": "share-nothing cell workers, index-ordered delivery, drained before return",
	},
}

// GoroutineScope rejects `go` statements outside the scheduler
// allowlist and the audited per-function sanction table.
var GoroutineScope = &Analyzer{
	Name: "goroutinescope",
	Doc:  "forbid go statements outside the scheduler/runtime allowlist; use the discrete-event loop in internal/sim",
	Applies: func(pkgPath string) bool {
		for _, allowed := range goroutineAllowedPkgs {
			if hasPathSuffix(pkgPath, allowed) {
				return false
			}
		}
		return true
	},
	Run: runGoroutineScope,
}

// sanctionedFuncsFor returns the per-function sanction set matching the
// package, or nil.
func sanctionedFuncsFor(pkgPath string) map[string]string {
	for suffix, funcs := range goroutineSanctionedFuncs {
		if hasPathSuffix(pkgPath, suffix) {
			return funcs
		}
	}
	return nil
}

func runGoroutineScope(p *Pass) {
	sanctioned := sanctionedFuncsFor(p.Pkg.Path())
	report := func(root ast.Node, allowed bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok && !allowed {
				p.Reportf(g.Pos(), "go statement outside the scheduler allowlist races the discrete-event loop; schedule through internal/sim instead")
			}
			return true
		})
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fd.Body == nil {
					continue
				}
				allowed := sanctioned != nil && sanctioned[fd.Name.Name] != ""
				report(fd.Body, allowed)
				continue
			}
			// go statements can also hide in function literals inside
			// var/const initializers; those are never sanctioned.
			report(decl, false)
		}
	}
}
