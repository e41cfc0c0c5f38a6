package kernel

import (
	"errors"

	"jskernel/internal/browser"
	"jskernel/internal/sim"
	"jskernel/internal/trace"
)

// This file holds the kernel's structural core: the Shared storage, the
// per-scope Kernel instance, and their accessors. The behaviour lives in
// focused siblings — syscall.go (the mediated bindings table), sched.go
// (two-stage scheduler and dispatcher), timers.go, messaging.go, net.go,
// policy.go (policy types and evaluation), worker.go (thread manager).

// Errors surfaced to user space by policy verdicts.
var (
	// ErrPolicyDenied is returned when a policy denies a call outright.
	ErrPolicyDenied = errors.New("jskernel: denied by security policy")
	// ErrSanitized replaces native errors whose text would leak
	// cross-origin information.
	ErrSanitized = errors.New("jskernel: operation failed")
)

// Shared is the kernel state common to every thread of one browser: the
// paper's "storage place of kernel objects" that all kernel threads can
// reach, plus the thread manager's registry. It also holds every piece
// of the run's mutable kernel state: the callback fault hook, the trace
// binding, the shared-buffer serialization point and the worker
// handshake bookkeeping. Every kernel-based environment build makes its
// own Shared, so nothing a concurrently-running experiment cell touches
// is reachable from another cell's kernel. The trace is the kernel's one record of
// what it enforced; Shared keeps no second account.
type Shared struct {
	policy Policy
	// kernels holds every kernelized scope; byThread indexes each
	// thread's primary scope (the window or the worker self — frames on
	// the main thread are additional scopes).
	kernels  map[*browser.Global]*Kernel
	byThread map[int]*Kernel
	workers  map[int]*WorkerStub // worker ID → thread-manager entry
	// main is the window's kernel: frames share the main thread, so it
	// is not just any kernel outside a worker.
	main *Kernel

	// simNow is captured from the first installed scope so Shared-level
	// trace emissions (policy verdicts) can be virtual-time-stamped
	// without a kernel in hand.
	simNow func() sim.Time

	// callbackFault is the fault-injection hook (SetCallbackFault).
	callbackFault func(api string) bool

	// tracer is the optional lifecycle trace sink (internal/trace). Nil —
	// the default — is the near-zero-overhead off state: every emission
	// site bails on one nil check.
	tracer *trace.Session
	// traceRun is this browser's session-unique run generation: sessions
	// may span many environments, each with its own simulator (virtual
	// time restarts at zero) and thread numbering, so records carry the
	// run so consumers can partition per-environment.
	traceRun int

	lastBufAccess sim.Time // serialization point for shared-buffer ops

	// envelopes is the free list of message envelopes (messaging.go).
	envelopes []*envelope

	pendingFetch map[int]int  // worker ID → in-flight fetch count
	transferred  map[int]bool // worker ID → transferred a buffer to parent
	deferredTerm map[int]bool // worker ID → native terminate pending drain
}

// Survival hardening bounds. The watchdog deadline comfortably exceeds
// the slowest legitimate confirmation in any workload (a 10MB transfer
// over the Tor-degraded link takes ~29s of virtual time); the queue bound
// exceeds the deepest legitimate queue by an order of magnitude.
const (
	// WatchdogDeadline is how long (virtual time) a pending queue head
	// may wait for its confirmation before the watchdog force-expires it.
	WatchdogDeadline = 60 * sim.Second
	// MaxQueueDepth bounds each context's event queue; registrations
	// past it are shed (traced, their callbacks never run).
	MaxQueueDepth = 16384
	// maxCallbackPanics is how many user-callback panics one context may
	// throw before the kernel quarantines it.
	maxCallbackPanics = 8
)

// NewShared creates the cross-thread kernel state for one browser under
// the given policy, with no fault hook and no tracer attached. Wire its
// Install method into browser.Options InstallScope so every new
// JavaScript context gets a kernel — the paper's bootstrap injection.
func NewShared(p Policy) *Shared {
	if p == nil {
		panic("kernel: nil policy")
	}
	return &Shared{
		policy:       p,
		kernels:      make(map[*browser.Global]*Kernel),
		byThread:     make(map[int]*Kernel),
		workers:      make(map[int]*WorkerStub),
		pendingFetch: make(map[int]int),
		transferred:  make(map[int]bool),
		deferredTerm: make(map[int]bool),
	}
}

// SetCallbackFault installs a fault-injection hook consulted before every
// user-callback dispatch; returning true makes the dispatch panic inside
// the user callback (exercising the kernel's panic isolation). Tests and
// internal/fault use it; nil removes the hook.
func (s *Shared) SetCallbackFault(f func(api string) bool) { s.callbackFault = f }

// SetTracer attaches a lifecycle trace session and allocates this
// browser's run generation from it. It must be set before scopes are
// installed — installation is when each kernel is assigned its
// session-unique trace scope ID. Nil detaches (tracing off).
func (s *Shared) SetTracer(t *trace.Session) {
	s.tracer = t
	if t != nil {
		s.traceRun = t.NextRun()
	}
}

// Tracer returns the attached trace session, or nil.
func (s *Shared) Tracer() *trace.Session { return s.tracer }

// TraceRun returns this browser's trace run generation (0 when no
// tracer is attached).
func (s *Shared) TraceRun() int { return s.traceRun }

// Policy returns the installed policy.
func (s *Shared) Policy() Policy { return s.policy }

// KernelFor returns the kernel guarding a thread's primary scope, or nil.
func (s *Shared) KernelFor(t *browser.Thread) *Kernel {
	if t == nil {
		return nil
	}
	return s.byThread[t.ID()]
}

// KernelOf returns the kernel guarding a specific scope, or nil.
func (s *Shared) KernelOf(g *browser.Global) *Kernel { return s.kernels[g] }

// Kernel is one thread's kernel instance: event queue, logical clock,
// scheduler and dispatcher state.
type Kernel struct {
	shared *Shared
	g      *browser.Global
	native browser.Bindings

	queue *EventQueue
	clock *Clock

	dispatching bool
	lastMsgPred sim.Time // chain for sender-less (raw) inbound messages
	lastOutPred sim.Time // chain for messages this kernel sends

	intervals     map[int]*intervalState // kernel interval id → chain state
	nextIntervals int

	// watchdog is the one callback every watchdog alarm runs (k.expire,
	// bound once).
	watchdog func()

	userOnMessage func(*browser.Global, browser.MessageEvent)
	msgInbox      []browser.MessageEvent

	animChains map[int]*tickChain // css animation id → chain

	// Survival state: recovered user-callback panics and the quarantine
	// they trigger for this context.
	panics      int
	quarantined bool

	// scope is this kernel's session-unique trace scope ID (0 when the
	// scope was installed without a tracer attached).
	scope int
	// wid is this scope's worker ID: set by kNewWorker once it has
	// registered the worker, 0 for every other scope.
	wid int
}

// emit stamps one trace record with this kernel's virtual time, logical
// clock, thread and scope, and forwards it to the session. The nil check
// is the tracing-off fast path; hot call sites check the session before
// they build the record, so tracing off does not pay for its copy.
func (k *Kernel) emit(r trace.Record) {
	t := k.shared.tracer
	if t == nil {
		return
	}
	r.Run = k.shared.traceRun
	r.VT = k.g.Browser().Sim.Now()
	r.LC = k.clock.Now()
	r.Thread = k.g.Thread().ID()
	r.Scope = k.scope
	if r.WorkerID == 0 {
		r.WorkerID = k.wid
	}
	t.Emit(r)
}

// emitEdge records one synchronization edge endpoint for the hb race
// analysis: api names the sync-object class ("sab-lock", "sys"), id the
// object, action "rel" (release) or "acq" (acquire). Release/acquire
// pairs on the same (run, api, id) key become happens-before edges.
func (k *Kernel) emitEdge(api string, id int64, action string) {
	if k.shared.tracer != nil {
		k.emit(trace.Record{Op: trace.OpEdge, API: api, Action: action, Value: id})
	}
}

// Queue exposes the kernel event queue (tests and reports).
func (k *Kernel) Queue() *EventQueue { return k.queue }

// Clock exposes the kernel logical clock.
func (k *Kernel) Clock() *Clock { return k.clock }

// Quarantined reports whether this context's user callbacks are
// suppressed after repeated panics.
func (k *Kernel) Quarantined() bool { return k.quarantined }

// Panics reports how many user-callback panics this context threw (all
// recovered by the dispatcher).
func (k *Kernel) Panics() int { return k.panics }

// interposeCost is the real (virtual-time) cost of crossing the kernel
// boundary once: the user→kernel→native round trip of §III-B. It is what
// the paper's Dromaeo experiment measures — invisible to the logical
// clock, but real work for the engine.
const interposeCost = 50 * sim.Nanosecond

// interpose charges one kernel-boundary crossing.
func (k *Kernel) interpose() {
	k.g.Busy(interposeCost)
	k.shared.tracer.CountInterpose(interposeCost)
}
