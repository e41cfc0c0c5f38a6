package analysis

import (
	"go/ast"
	"go/types"
)

// panicSafePkgs are the package-path suffixes PanicSafe patrols: the
// layers that invoke code the kernel does not control (security
// policies and user callbacks).
var panicSafePkgs = []string{
	"internal/kernel",
	"internal/browser",
}

// panicSafeWrappers maps the guarded call kind to the one function
// allowed to make it raw — the recover-wrapped helper from the kernel
// survival hardening (PR 1).
var panicSafeWrappers = map[string]string{
	"Policy.Evaluate": "safeEvaluate",
	"Event.Callback":  "dispatchUser",
}

// PanicSafe rejects raw invocations of foreign code in the kernel and
// browser layers. A policy's Evaluate or a user callback that panics
// outside the recover-wrapped helpers unwinds the dispatcher — the
// exact denial-of-service the survival hardening closed. Policies must
// be consulted through Shared.safeEvaluate (via Shared.evaluate);
// released event callbacks must run through Kernel.dispatchUser.
var PanicSafe = &Analyzer{
	Name: "panicsafe",
	Doc:  "forbid raw Policy.Evaluate calls and raw event-callback calls in kernel+browser; use the recover-wrapped helpers",
	Applies: func(pkgPath string) bool {
		for _, patrolled := range panicSafePkgs {
			if hasPathSuffix(pkgPath, patrolled) {
				return true
			}
		}
		return false
	},
	Run: runPanicSafe,
}

func runPanicSafe(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch {
				case isPolicyEvaluate(p, sel):
					if fd.Name.Name != panicSafeWrappers["Policy.Evaluate"] {
						p.Reportf(call.Pos(), "raw Policy.Evaluate call: a panicking policy would unwind the dispatcher; consult the policy through Shared.evaluate (recover-wrapped by safeEvaluate)")
					}
				case isEventCallback(p, sel):
					if fd.Name.Name != panicSafeWrappers["Event.Callback"] {
						p.Reportf(call.Pos(), "raw event callback invocation: a panicking user callback would unwind the dispatcher; release events through Kernel.dispatchUser")
					}
				}
				return true
			})
		}
	}
}

// isPolicyEvaluate reports whether sel is a call target of the form
// <Policy value>.Evaluate where Policy is the kernel's policy
// interface.
func isPolicyEvaluate(p *Pass, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Evaluate" {
		return false
	}
	return isKernelNamed(deref(p.Info.TypeOf(sel.X)), "Policy")
}

// isEventCallback reports whether sel calls a released event's user
// code: a func-typed field of the kernel's Event type (Callback, and the
// typed timeout and frame callbacks), or the fire method of the kernel's
// ticker interface, through which interval and tick-chain events run.
func isEventCallback(p *Pass, sel *ast.SelectorExpr) bool {
	selection, ok := p.Info.Selections[sel]
	if !ok {
		return false
	}
	switch selection.Kind() {
	case types.FieldVal:
		if _, isFunc := selection.Type().Underlying().(*types.Signature); !isFunc {
			return false
		}
		return isKernelNamed(deref(selection.Recv()), "Event")
	case types.MethodVal:
		return sel.Sel.Name == "fire" && isKernelNamed(deref(selection.Recv()), "ticker")
	}
	return false
}

// isKernelNamed reports whether t is the named type internal/kernel.<name>.
func isKernelNamed(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && hasPathSuffix(obj.Pkg().Path(), "internal/kernel")
}

func deref(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}
