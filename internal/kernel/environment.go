package kernel

import (
	"jskernel/internal/sim"
	"jskernel/internal/trace"
)

// Environment owns every piece of run-scoped mutable kernel state: the
// callback fault hook, the trace session binding (with this run's
// session-unique generation), the shared-buffer serialization point, and
// the worker handshake bookkeeping (pending fetches, buffer transfers,
// deferred terminations). The trace is the kernel's one record of what
// it enforced; the environment keeps no second account.
//
// Shared keeps only the structural state of one browser — policy, the
// scope and thread registries — and delegates everything mutable here.
// The split is what makes experiment cells safely parallel: one cell =
// one Environment, so nothing a concurrently-running cell touches is
// reachable from another cell's kernel. Any state that used to live in
// a package-level variable or leak across runs through Shared is either
// in this struct or provably immutable.
type Environment struct {
	// simNow is captured from the first installed scope so
	// environment-level trace emissions (policy verdicts) can be
	// virtual-time-stamped without a kernel in hand.
	simNow func() sim.Time

	// callbackFault is the fault-injection hook (Shared.SetCallbackFault).
	callbackFault func(api string) bool

	// tracer is the optional lifecycle trace sink (internal/trace). Nil —
	// the default — is the near-zero-overhead off state: every emission
	// site bails on one nil check.
	tracer *trace.Session
	// traceRun is this environment's session-unique run generation:
	// sessions may span many environments, each with its own simulator
	// (virtual time restarts at zero) and thread numbering, so records
	// carry the run so consumers can partition per-environment.
	traceRun int

	lastBufAccess sim.Time // serialization point for shared-buffer ops

	pendingFetch map[int]int  // worker ID → in-flight fetch count
	transferred  map[int]bool // worker ID → transferred a buffer to parent
	deferredTerm map[int]bool // worker ID → native terminate pending drain
}

// NewEnvironment returns a fresh environment with no fault hook and no
// tracer attached.
func NewEnvironment() *Environment {
	return &Environment{
		pendingFetch: make(map[int]int),
		transferred:  make(map[int]bool),
		deferredTerm: make(map[int]bool),
	}
}

// Reset returns the environment to the state NewEnvironment builds,
// keeping its allocated maps so a warm pool can reuse environments
// without rebuilding them. The contract is strict: a run on a reset
// environment must be byte-identical to the same run on a fresh one, at
// any reuse depth — nothing observable may survive a reset. jsk-serve's worker pool calls this between requests;
// the pin tests in internal/kernel and internal/expr enforce the
// contract across multiple reuse generations.
func (e *Environment) Reset() {
	e.simNow = nil
	e.callbackFault = nil
	e.tracer = nil
	e.traceRun = 0
	e.lastBufAccess = 0
	clear(e.pendingFetch)
	clear(e.transferred)
	clear(e.deferredTerm)
}

// setTracer attaches a lifecycle trace session and allocates this
// environment's run generation from it. Nil detaches.
func (e *Environment) setTracer(t *trace.Session) {
	e.tracer = t
	if t != nil {
		e.traceRun = t.NextRun()
	}
}

// Tracer returns the attached trace session, or nil.
func (e *Environment) Tracer() *trace.Session { return e.tracer }

// TraceRun returns this environment's trace run generation (0 when no
// tracer is attached).
func (e *Environment) TraceRun() int { return e.traceRun }
