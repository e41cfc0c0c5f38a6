// Package trace implements the kernel's deterministic tracing and
// metrics layer.
//
// Every event-lifecycle transition the kernel performs — enqueue, policy
// decision, confirmation, dispatch, shed, cancel, watchdog expiry, panic
// recovery, quarantine — is emitted as a structured Record stamped with
// the run's virtual time, the kernel logical clock, the thread and the
// kernelized scope. Because the whole substrate is a deterministic
// discrete-event simulation, a trace is byte-identical across reruns of
// the same configuration, which turns traces into regression oracles:
// golden traces pin the exact scheduling behaviour of the kernel, and the
// validator (Validate, StreamValidator) replays any trace asserting the
// kernel's lifecycle invariants. The trace is also the kernel's only
// record of what it enforced: policy verdicts and survival incidents
// are records like any other.
//
// Tracing is off by default and must cost nearly nothing when off: the
// kernel holds a *Session pointer and every emission site guards on a
// single nil check (the nil-sink fast path). A Session also maintains a
// Metrics registry — per-API counters, queue-depth high-water marks, a
// virtual-time dispatch-latency histogram, and interposition-overhead
// totals — updated incrementally as records arrive.
package trace

import (
	"fmt"
	"sort"

	"jskernel/internal/sim"
)

// Op identifies one kind of kernel lifecycle transition.
type Op uint8

// Kernel lifecycle operations.
const (
	// OpInstall records a scope being kernelized (one per JavaScript
	// context: the window, each worker self, each frame).
	OpInstall Op = iota + 1
	// OpPolicy records a policy decision: the scheduling admit decision
	// made for every registration (Action "schedule") or an Evaluate
	// verdict for an intercepted call (allow/deny/sanitize/...).
	OpPolicy
	// OpEnqueue records an event registration entering a kernel queue.
	OpEnqueue
	// OpConfirm records a pending event's confirmation (pending → ready).
	OpConfirm
	// OpDispatch records the dispatcher releasing an event to user space.
	// Terminal.
	OpDispatch
	// OpShed records a registration refused at the queue-depth bound.
	// Terminal.
	OpShed
	// OpCancel records a user- or kernel-initiated cancellation. Terminal.
	OpCancel
	// OpExpire records the watchdog force-expiring a pending queue head
	// whose confirmation never arrived. Terminal.
	OpExpire
	// OpPanic records a recovered user-callback panic (the dispatch
	// itself already happened; the context survives).
	OpPanic
	// OpQuarantine records a context whose callbacks are suppressed after
	// repeated panics.
	OpQuarantine
	// OpNative records a native-layer (browser/webnet) trace event
	// bridged into the kernel trace for end-to-end visibility. Native
	// records may carry in-task cursor timestamps, so they are exempt
	// from the per-thread monotonicity invariant.
	OpNative
	// OpAccess records one shared-target access for the happens-before
	// analysis in internal/hb: API is the target class ("buffer",
	// "worker", "dom", ...), Value the target ID, Action "r" or "w" (a
	// "g" suffix marks a hazard-guardian access attributed to the
	// target's guardian context rather than the accessing thread). Like
	// native records, accesses carry in-task cursor timestamps and are
	// exempt from the per-thread monotonicity invariant.
	OpAccess
	// OpEdge records a sanctioned synchronization edge endpoint: API
	// names the sync object class ("sab-lock", "sys", ...), Value the
	// object ID, Action "rel" (release) or "acq" (acquire). The hb layer
	// joins rel→acq pairs per (run, API, Value) into happens-before
	// edges beyond the kernel lifecycle's own enqueue/confirm→dispatch.
	OpEdge
)

// String names the operation for renderers.
func (o Op) String() string {
	switch o {
	case OpInstall:
		return "install"
	case OpPolicy:
		return "policy"
	case OpEnqueue:
		return "enqueue"
	case OpConfirm:
		return "confirm"
	case OpDispatch:
		return "dispatch"
	case OpShed:
		return "shed"
	case OpCancel:
		return "cancel"
	case OpExpire:
		return "expire"
	case OpPanic:
		return "panic"
	case OpQuarantine:
		return "quarantine"
	case OpNative:
		return "native"
	case OpAccess:
		return "access"
	case OpEdge:
		return "edge"
	default:
		return "invalid"
	}
}

// Terminal reports whether the operation retires an event: after a
// terminal record no further lifecycle records may reference the event.
func (o Op) Terminal() bool {
	switch o {
	case OpDispatch, OpShed, OpCancel, OpExpire:
		return true
	}
	return false
}

// cursorTimed reports whether the operation's records carry in-task
// cursor timestamps (native events, hb accesses and edges), exempting
// them from the per-thread VT monotonicity invariant and the per-scope
// logical-clock high-water fold.
func (o Op) cursorTimed() bool {
	switch o {
	case OpNative, OpAccess, OpEdge:
		return true
	}
	return false
}

// Record is one structured trace entry. The zero values of optional
// fields mean "not applicable" (Event 0 = not event-scoped, Scope 0 =
// not bound to a kernelized scope).
type Record struct {
	// Seq is the session-wide total order, stamped by the Session.
	Seq uint64
	// Run is the session-unique environment generation the record belongs
	// to (assigned via NextRun). One session may trace many environments —
	// each with its own simulator restarting at virtual time zero and its
	// own thread numbering — so virtual-time monotonicity only holds per
	// (run, thread). 0 means "no run context".
	Run int
	// VT is the simulator's virtual time at emission.
	VT sim.Time
	// LC is the emitting kernel's logical-clock reading (kernel records
	// only).
	LC sim.Time
	// Thread is the simulated thread the transition occurred on.
	Thread int
	// Scope is the session-unique ID of the kernelized scope (assigned
	// at install time); 0 for records not bound to one scope.
	Scope int
	// WorkerID is the worker involved, when applicable (0 = main).
	WorkerID int
	// Op is the lifecycle transition.
	Op Op
	// API is the registration or call type ("setTimeout", "fetch", ...).
	API string
	// Event is the kernel event ID within the scope; 0 when the record
	// is not event-scoped (policy verdicts for non-event calls, installs,
	// native records).
	Event uint64
	// Predicted is the logical time the scheduler assigned to the event.
	Predicted sim.Time
	// Action qualifies policy and terminal records ("schedule", "allow",
	// "deny", "expire", "run-end", ...).
	Action string
	// Reason is the free-form rationale carried by policy decisions and
	// survival incidents.
	Reason string
	// URL is the resource involved, when applicable.
	URL string
	// Depth is the emitting scope's queue depth after the transition
	// (enqueue/dispatch records).
	Depth int
	// Value is the record's numeric payload. Native records bridge the
	// browser event's value through it (fetch IDs, buffer IDs, scope
	// tokens); kernel records leave it zero.
	Value int64
	// Aux is a second numeric payload qualifying Value (native records:
	// requested timer delays, clock-read bit patterns, frame indices).
	Aux int64
}

// key identifies one event uniquely within a session: scope IDs are
// session-unique and event IDs are unique within a scope.
func (r *Record) key() uint64 { return uint64(r.Scope)<<32 | r.Event }

// lastKey maps keys to per-key state behind a cache of the last key
// looked up. Consecutive records mostly share their scope and their
// (run, thread), so the record path hashes a key only when it changes.
// Each key's state is allocated once, on first use, and never moves.
// Keys come from the stream, so nothing here is sized by a key's value.
type lastKey[K comparable, V any] struct {
	m    map[K]*V
	key  K
	last *V
}

// at returns k's state, creating a zero one on first use, and caches k.
func (c *lastKey[K, V]) at(k K) *V {
	if c.last != nil && c.key == k {
		return c.last
	}
	v := c.slot(k)
	c.key, c.last = k, v
	return v
}

// slot is at without touching the cache. Folds that range over a map
// use it: which key such a range visits last is random, and the cache
// (which reflect.DeepEqual sees) must not depend on it.
func (c *lastKey[K, V]) slot(k K) *V {
	v := c.m[k]
	if v == nil {
		if c.m == nil {
			c.m = make(map[K]*V)
		}
		v = new(V)
		c.m[k] = v
	}
	return v
}

// get returns k's state, or nil when k was never used.
func (c *lastKey[K, V]) get(k K) *V {
	if c.last != nil && c.key == k {
		return c.last
	}
	return c.m[k]
}

// len reports how many keys have state.
func (c *lastKey[K, V]) len() int { return len(c.m) }

// Sink observes every record a Session emits, in emission order, after
// the session has stamped it (Seq assigned, VT/LC high-waters folded).
// Sinks let several consumers — exporters, validators, the obs layer —
// watch one stream simultaneously without each buffering its own copy.
// Implementations must be cheap and must not re-enter the session.
type Sink interface {
	Observe(Record)
}

// openEvent is the bookkeeping a Session keeps for every event that has
// been enqueued but not yet retired.
type openEvent struct {
	api      string
	run      int
	thread   int
	scope    int
	workerID int
	enqVT    sim.Time
}

// Session accumulates a run's trace records and incrementally maintains
// the metrics registry. It is single-goroutine, like the simulator it
// observes. A nil *Session is a valid no-op sink, so holders can emit
// unconditionally after one nil check.
type Session struct {
	seq     uint64
	chunks  [][]Record // retained records, in emission order
	metrics *Metrics
	sinks   []Sink
	retain  bool // append records to the in-memory buffer

	scopes int // session-unique scope ID allocator
	runs   int // session-unique environment-generation allocator

	open    map[uint64]openEvent   // enqueued-but-unretired events
	scopeLC lastKey[int, sim.Time] // per-scope logical-clock high-water
	maxVT   sim.Time
	closed  bool
}

// NewSession returns an empty tracing session that retains records
// in memory (see SetRetain for streaming-only sessions).
func NewSession() *Session {
	return &Session{
		retain:  true,
		metrics: newMetrics(),
		open:    make(map[uint64]openEvent),
	}
}

// Attach subscribes a sink to the session's record stream. Records
// already emitted are not replayed; attach sinks before the run starts.
func (s *Session) Attach(sink Sink) {
	if s == nil || sink == nil {
		return
	}
	s.sinks = append(s.sinks, sink)
}

// SetRetain controls whether emitted records are also appended to the
// in-memory buffer behind Records. Sessions that exist only to feed
// attached sinks (streaming profiles, forensics over huge matrices) can
// switch retention off and run in constant memory; metrics and the
// open-event ledger keep working either way. Retain-off sessions cannot
// be absorbed into a parent (Absorb replays the record buffer).
func (s *Session) SetRetain(retain bool) {
	if s == nil {
		return
	}
	s.retain = retain
}

// NextScope allocates a session-unique scope ID. Kernels call it at
// install time so traces spanning several environments never collide on
// (scope, event) keys.
func (s *Session) NextScope() int {
	s.scopes++
	return s.scopes
}

// NextRun allocates a session-unique environment generation. Each
// environment fed into the session takes one, so records from different
// simulators (each with its own virtual clock and thread numbering)
// stay distinguishable.
func (s *Session) NextRun() int {
	s.runs++
	return s.runs
}

// Emit streams one record: stamps its sequence number, folds it into
// the metrics registry, fans it out to attached sinks, and (when the
// session retains) appends it to the in-memory buffer. Safe on a nil
// session.
func (s *Session) Emit(r Record) {
	if s == nil {
		return
	}
	if r.VT > s.maxVT {
		s.maxVT = r.VT
	}
	if r.Scope != 0 && !r.Op.cursorTimed() {
		if lc := s.scopeLC.at(r.Scope); r.LC > *lc {
			*lc = r.LC
		}
	}
	s.track(&r)
	s.metrics.observe(&r)
	s.emit(&r)
}

// emit is the record path Emit and Absorb share: it stamps r's sequence
// number, retains a copy when the session retains, and hands a copy to
// each attached sink.
func (s *Session) emit(r *Record) {
	s.seq++
	r.Seq = s.seq
	if s.retain {
		s.keep(r)
	}
	for _, sink := range s.sinks {
		sink.Observe(*r)
	}
}

// Retained records live in chunks that are allocated at their full
// size and never grown: the first holds firstChunk records, each next
// one twice its predecessor's, up to recordChunk. A short session pays
// for at most about twice what it emits, and no session ever copies or
// re-zeroes a record it already holds.
const (
	firstChunk  = 64
	recordChunk = 4096
)

// keep appends r to the retained records.
func (s *Session) keep(r *Record) {
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1]) == cap(s.chunks[n-1]) {
		size := firstChunk
		if n > 0 {
			size = min(2*cap(s.chunks[n-1]), recordChunk)
		}
		s.chunks = append(s.chunks, make([]Record, 0, size))
		n++
	}
	s.chunks[n-1] = append(s.chunks[n-1], *r)
}

// retained reports how many records the session holds.
func (s *Session) retained() int {
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	return n
}

// track maintains the open-event set used by Close and the
// dispatch-latency metric.
func (s *Session) track(r *Record) {
	if r.Event == 0 || r.Scope == 0 {
		return
	}
	k := r.key()
	switch {
	case r.Op == OpEnqueue:
		s.open[k] = openEvent{
			api:      r.API,
			run:      r.Run,
			thread:   r.Thread,
			scope:    r.Scope,
			workerID: r.WorkerID,
			enqVT:    r.VT,
		}
	case r.Op.Terminal():
		if ev, ok := s.open[k]; ok {
			if r.Op == OpDispatch {
				s.metrics.observeLatency(r.VT - ev.enqVT)
			}
			delete(s.open, k)
		}
	}
}

// CountInterpose charges one kernel-boundary crossing of the given
// virtual cost to the metrics registry. Interpositions are counted, not
// recorded — one record per crossing would dwarf the lifecycle trace.
// Safe on a nil session.
func (s *Session) CountInterpose(cost sim.Duration) {
	if s == nil {
		return
	}
	s.metrics.InterposeCrossings++
	s.metrics.InterposeVirtual += cost
}

// Close retires every still-open event with a synthetic terminal cancel
// record (Action "run-end"), so finished traces satisfy the strict
// "every enqueued event terminates exactly once" invariant even when a
// run was stopped at a virtual-time horizon with confirmations still
// outstanding. Closing is idempotent; the synthetic records are emitted
// in sorted (scope, event) order so closed traces stay byte-identical
// across reruns.
func (s *Session) Close() {
	if s == nil || s.closed {
		return
	}
	keys := make([]uint64, 0, len(s.open))
	for k := range s.open {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		ev := s.open[k]
		var lc sim.Time
		if p := s.scopeLC.get(ev.scope); p != nil {
			lc = *p
		}
		s.Emit(Record{
			VT:       s.maxVT,
			LC:       lc,
			Run:      ev.run,
			Thread:   ev.thread,
			Scope:    ev.scope,
			WorkerID: ev.workerID,
			Op:       OpCancel,
			API:      ev.api,
			Event:    k & 0xffffffff,
			Action:   "run-end",
			Reason:   "open at trace close",
		})
	}
	s.closed = true
}

// Closed reports whether Close has run.
func (s *Session) Closed() bool { return s != nil && s.closed }

// Len reports the number of records emitted so far (retained or not),
// which is also the last record's sequence number. Together with Runs
// and MaxVT it forms the span-link coordinates joining a wall-clock
// service span to this session's virtual-time trace.
func (s *Session) Len() int {
	if s == nil {
		return 0
	}
	return int(s.seq)
}

// Records returns a copy of the session's records.
func (s *Session) Records() []Record {
	if s == nil {
		return nil
	}
	out := make([]Record, 0, s.retained())
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	return out
}

// Metrics exposes the session's metrics registry.
func (s *Session) Metrics() *Metrics {
	if s == nil {
		return nil
	}
	return s.metrics
}

// Runs reports how many environment generations the session has
// allocated.
func (s *Session) Runs() int {
	if s == nil {
		return 0
	}
	return s.runs
}

// MaxVT reports the virtual-time high water across every record.
func (s *Session) MaxVT() sim.Time {
	if s == nil {
		return 0
	}
	return s.maxVT
}

// Open reports how many enqueued events have not yet reached a terminal
// state.
func (s *Session) Open() int {
	if s == nil {
		return 0
	}
	return len(s.open)
}

// fmtVT renders a virtual timestamp the way the rest of the repo does.
func fmtVT(t sim.Time) string { return fmt.Sprintf("%.3fms", t.Milliseconds()) }
