package browser

import "jskernel/internal/sim"

// TraceKind identifies what happened at the browser's native layer. The
// vulnerability registry (internal/vuln) consumes these events to detect
// whether a CVE's triggering sequence was reached — post-interposition, so
// a kernel policy that rewrites or suppresses the native calls prevents the
// trigger from ever appearing in the trace.
type TraceKind int

// Trace kinds emitted by the native layer.
const (
	TraceWorkerCreated TraceKind = iota + 1
	TraceWorkerReady
	TraceWorkerTerminated
	TraceWorkerError
	TracePostMessage
	TraceOnMessageSet
	TraceMessageDelivered
	TraceFetchStart
	TraceFetchDone
	TraceFetchAbort
	TraceXHR
	TraceImportScripts
	TraceTransferable
	TraceIndexedDBOpen
	TraceIndexedDBPut
	TraceDocumentTeardown
	TraceNavigationError
	TraceSharedBufferOp
	TraceFetchRetry
	TraceFaultInjected
	// Observability kinds: emitted only when Options.ObsEvents is set.
	// They mark user-callback entries and clock readings — the raw
	// material the forensics layer (internal/obs) reconstructs
	// measurement harnesses from. Emission never advances simulated
	// time, so execution is identical with obs on or off.
	TraceTimerFired
	TraceClockRead
	TraceMessageCallback
	TraceFrameTick
	TraceLoadDone
	// TraceAccess marks one shared-target access for the happens-before
	// race analysis (internal/hb): Detail is the target class ("buffer",
	// "worker", "dom", ...), Value the target ID, Aux the accessKind
	// bits. Emitted whenever a tracer is attached; like obs kinds, the
	// emission never advances simulated time.
	TraceAccess
)

// Access-kind bits carried in a TraceAccess event's Aux field.
const (
	// AccessWrite marks the access as a write (unset = read).
	AccessWrite int64 = 1 << iota
	// AccessGuardian attributes the access to the target's hazard
	// guardian — a per-target pseudo-context modeling the freed/forbidden
	// state a defense must order against (use-after-free, use-after-
	// teardown, cross-origin exposure). Guardian accesses participate in
	// happens-before only through their own program order, so they race
	// with any plain access unless the defense suppressed the trigger.
	AccessGuardian
)

// traceKindNames names each kind, indexed by kind.
var traceKindNames = [...]string{
	TraceWorkerCreated:    "worker-created",
	TraceWorkerReady:      "worker-ready",
	TraceWorkerTerminated: "worker-terminated",
	TraceWorkerError:      "worker-error",
	TracePostMessage:      "post-message",
	TraceOnMessageSet:     "onmessage-set",
	TraceMessageDelivered: "message-delivered",
	TraceFetchStart:       "fetch-start",
	TraceFetchDone:        "fetch-done",
	TraceFetchAbort:       "fetch-abort",
	TraceXHR:              "xhr",
	TraceImportScripts:    "import-scripts",
	TraceTransferable:     "transferable",
	TraceIndexedDBOpen:    "indexeddb-open",
	TraceIndexedDBPut:     "indexeddb-put",
	TraceDocumentTeardown: "document-teardown",
	TraceNavigationError:  "navigation-error",
	TraceSharedBufferOp:   "shared-buffer-op",
	TraceFetchRetry:       "fetch-retry",
	TraceFaultInjected:    "fault-injected",
	TraceTimerFired:       "timer-fired",
	TraceClockRead:        "clock-read",
	TraceMessageCallback:  "message-callback",
	TraceFrameTick:        "frame-tick",
	TraceLoadDone:         "load-done",
	TraceAccess:           "access",
}

// String names the trace kind for diagnostics.
func (k TraceKind) String() string {
	if k > 0 && int(k) < len(traceKindNames) {
		return traceKindNames[k]
	}
	return "unknown"
}

// KindByName inverts String: it resolves a trace-kind name back to its
// TraceKind. The obs layer uses it to reconstruct native events from
// kernel-trace records bridged through OpNative, once per record, so it
// is a switch the compiler turns into comparisons: no string is hashed.
func KindByName(name string) (TraceKind, bool) {
	switch name {
	case "worker-created":
		return TraceWorkerCreated, true
	case "worker-ready":
		return TraceWorkerReady, true
	case "worker-terminated":
		return TraceWorkerTerminated, true
	case "worker-error":
		return TraceWorkerError, true
	case "post-message":
		return TracePostMessage, true
	case "onmessage-set":
		return TraceOnMessageSet, true
	case "message-delivered":
		return TraceMessageDelivered, true
	case "fetch-start":
		return TraceFetchStart, true
	case "fetch-done":
		return TraceFetchDone, true
	case "fetch-abort":
		return TraceFetchAbort, true
	case "xhr":
		return TraceXHR, true
	case "import-scripts":
		return TraceImportScripts, true
	case "transferable":
		return TraceTransferable, true
	case "indexeddb-open":
		return TraceIndexedDBOpen, true
	case "indexeddb-put":
		return TraceIndexedDBPut, true
	case "document-teardown":
		return TraceDocumentTeardown, true
	case "navigation-error":
		return TraceNavigationError, true
	case "shared-buffer-op":
		return TraceSharedBufferOp, true
	case "fetch-retry":
		return TraceFetchRetry, true
	case "fault-injected":
		return TraceFaultInjected, true
	case "timer-fired":
		return TraceTimerFired, true
	case "clock-read":
		return TraceClockRead, true
	case "message-callback":
		return TraceMessageCallback, true
	case "frame-tick":
		return TraceFrameTick, true
	case "load-done":
		return TraceLoadDone, true
	case "access":
		return TraceAccess, true
	}
	return 0, false
}

// TraceEvent is one native-layer occurrence.
type TraceEvent struct {
	Kind     TraceKind
	At       sim.Time
	ThreadID int    // thread on which the event occurred
	WorkerID int    // worker involved, when applicable (0 = none)
	URL      string // resource involved, when applicable
	Detail   string // free-form qualifier (e.g. "pending", "private-mode")
	Value    int64  // numeric payload (e.g. fetch ID, buffer ID, scope token)
	Aux      int64  // second payload (requested delay, clock-read bits, frame index)
}

// Tracer observes native-layer events. Implementations must not retain the
// event past the call.
type Tracer interface {
	Trace(ev TraceEvent)
}

// Recorder is a Tracer that retains every native-layer event, for
// offline analysis (e.g. the policy synthesizer) and debugging.
type Recorder struct {
	events []TraceEvent
}

var _ Tracer = (*Recorder)(nil)

// Trace implements Tracer.
func (r *Recorder) Trace(ev TraceEvent) { r.events = append(r.events, ev) }

// Events returns a copy of the recorded trace.
func (r *Recorder) Events() []TraceEvent {
	out := make([]TraceEvent, len(r.events))
	copy(out, r.events)
	return out
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Reset clears the recording.
func (r *Recorder) Reset() { r.events = nil }

// Tee combines several tracers into one; nil entries are skipped.
func Tee(ts ...Tracer) Tracer {
	var m multiTracer
	for _, t := range ts {
		if t != nil {
			m = append(m, t)
		}
	}
	if len(m) == 1 {
		return m[0]
	}
	return m
}

// multiTracer fans a trace out to several tracers.
type multiTracer []Tracer

func (m multiTracer) Trace(ev TraceEvent) {
	for _, t := range m {
		t.Trace(ev)
	}
}

// access emits one TraceAccess event for the hb race analysis: class
// names the shared-target class, id the target, kind the AccessWrite/
// AccessGuardian bits. The event carries the emitting thread's in-task
// cursor time, so co-scheduled accesses from different threads keep
// their true temporal interleaving. No-op without a tracer.
func (b *Browser) access(t *Thread, class string, id int64, kind int64) {
	if b.tracer == nil {
		return
	}
	b.tracer.Trace(TraceEvent{
		Kind:     TraceAccess,
		At:       t.Now(),
		ThreadID: t.id,
		Detail:   class,
		Value:    id,
		Aux:      kind,
	})
}

// trace emits a native-layer event if a tracer is installed. Events carry
// the simulator clock unless the emitter already stamped a finer in-task
// cursor time.
func (b *Browser) trace(ev TraceEvent) {
	if b.tracer == nil {
		return
	}
	if ev.At == 0 {
		ev.At = b.Sim.Now()
	}
	b.tracer.Trace(ev)
}
