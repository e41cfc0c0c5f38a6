package kernel

import (
	"jskernel/internal/sim"
	"jskernel/internal/trace"
)

// Action is what a policy tells the kernel to do with an intercepted call.
type Action string

// Policy actions.
const (
	// ActionAllow passes the call through to the native layer.
	ActionAllow Action = "allow"
	// ActionDeny rejects the call with an error, never reaching native.
	ActionDeny Action = "deny"
	// ActionSanitize replaces the native (leaky) result or error with a
	// kernel-synthesized safe one, without invoking the native path.
	ActionSanitize Action = "sanitize"
	// ActionDefer postpones the native call until the kernel observes a
	// safe state (e.g. terminate once pending fetches drain).
	ActionDefer Action = "defer"
	// ActionRetain makes the call user-visibly succeed while the kernel
	// keeps the underlying resource alive indefinitely (e.g. a worker that
	// transferred buffers is never natively terminated).
	ActionRetain Action = "retain"
	// ActionDrop silently discards the call.
	ActionDrop Action = "drop"
	// ActionSerialize forces the access through the kernel's serializing
	// queue, eliminating cross-thread races.
	ActionSerialize Action = "serialize"
)

// Incident actions: the kernel stamps these on the trace records of its
// survival incidents (OpPanic, OpQuarantine, OpShed, OpExpire). Policies
// never return them.
const (
	// ActionIsolate records one recovered user-callback panic that the
	// kernel absorbed.
	ActionIsolate Action = "isolate"
	// ActionQuarantine records a context whose user callbacks are
	// suppressed after repeated panics; its events still drain so the
	// dispatcher never wedges.
	ActionQuarantine Action = "quarantine"
	// ActionShed records an event registration refused because the
	// context's queue depth hit the overload bound.
	ActionShed Action = "shed"
	// ActionExpire records a pending event force-expired by the watchdog
	// because its confirmation never arrived.
	ActionExpire Action = "expire"
)

// CallContext describes one intercepted API call for policy evaluation.
// Field names mirror the predicates the paper's example policies test.
type CallContext struct {
	API              string // e.g. "fetch", "xhr", "worker.terminate"
	URL              string
	WorkerID         int
	ThreadID         int  // simulated thread the call originated on
	InWorker         bool // call made from a worker scope
	CrossOrigin      bool // URL is cross-origin w.r.t. the page
	PrivateMode      bool // browser is in private browsing
	TornDown         bool // document has been torn down
	WorkerTerminated bool // target worker is (user-visibly) terminated
	PendingFetches   bool // target worker has in-flight fetches
	InFlightMessages bool // target worker has undelivered messages
	Transferred      bool // target worker transferred a buffer out
	Redirected       bool // worker source resolves through a cross-origin redirect
}

// Verdict is a policy decision plus its rationale.
type Verdict struct {
	Action Action
	Reason string
}

// Allow is the zero-cost "no objection" verdict.
var Allow = Verdict{Action: ActionAllow}

// Policy is what the kernel consults. Implementations live in
// internal/policy; the deterministic scheduling policy of §II-B1 and the
// CVE-specific policies of §IV-B both satisfy it.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Deterministic reports whether event scheduling and the displayed
	// clock must be fully deterministic (the defense against implicit
	// clocks). Non-deterministic kernels still enforce Evaluate verdicts.
	Deterministic() bool
	// Quantum is the logical-clock display granularity and the spacing
	// unit for predicted event times.
	Quantum() sim.Duration
	// PredictDelay returns the logical delay to predict for an event of
	// the given API kind; requested is the user-requested delay (timers)
	// or zero.
	PredictDelay(api string, requested sim.Duration) sim.Duration
	// Evaluate vets one intercepted call.
	Evaluate(ctx CallContext) Verdict
}

// DefaultPredictDelay is the standard deterministic prediction shared by
// policy implementations: timer delays quantized up to the quantum,
// message deliveries one quantum, loads a fixed load prediction, frames
// and cues at their nominal periods quantized to the quantum.
func DefaultPredictDelay(api string, requested, quantum, loadPrediction sim.Duration) sim.Duration {
	if quantum <= 0 {
		quantum = sim.Millisecond
	}
	quantize := func(d sim.Duration) sim.Duration {
		if d <= quantum {
			return quantum
		}
		n := (d + quantum - 1) / quantum
		return n * quantum
	}
	switch api {
	case "setTimeout", "setInterval", "timer":
		return quantize(requested)
	case "message", "onmessage":
		return quantum
	case "fetch", "load", "script-load", "image-load":
		if loadPrediction > 0 {
			return quantize(loadPrediction)
		}
		return quantize(10 * sim.Millisecond)
	case "raf", "animation":
		return quantize(16_667 * sim.Microsecond)
	case "cue", "video":
		return quantize(100 * sim.Millisecond)
	default:
		return quantum
	}
}

// evaluate consults the policy and traces its verdict as one OpPolicy
// record. All kernel call sites go through here. A panicking policy
// never reaches the dispatcher: the panic is recovered and replaced with
// a fail-closed deny verdict.
func (s *Shared) evaluate(ctx CallContext) Verdict {
	v, panicked := s.safeEvaluate(ctx)
	if panicked {
		v = Verdict{Action: ActionDeny, Reason: "policy panicked; kernel fails closed"}
	}
	a := v.Action
	if a == "" {
		a = ActionAllow
	}
	s.emitPolicy(ctx, a, v.Reason)
	return v
}

// safeEvaluate runs the policy's Evaluate under panic isolation, so a
// misbehaving policy can never kill the dispatcher.
func (s *Shared) safeEvaluate(ctx CallContext) (v Verdict, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return s.policy.Evaluate(ctx), false
}

// emitPolicy emits one policy-verdict trace record. Verdict records are
// not event-scoped (Event 0); every intercepted call's decision is
// traced, allows included.
func (s *Shared) emitPolicy(ctx CallContext, a Action, reason string) {
	t := s.tracer
	if t == nil || s.simNow == nil {
		return
	}
	t.Emit(trace.Record{
		Run:      s.traceRun,
		VT:       s.simNow(),
		Thread:   ctx.ThreadID,
		WorkerID: ctx.WorkerID,
		Op:       trace.OpPolicy,
		API:      ctx.API,
		Action:   string(a),
		Reason:   reason,
		URL:      ctx.URL,
	})
}
