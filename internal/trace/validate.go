package trace

import (
	"errors"
	"fmt"

	"jskernel/internal/sim"
)

// Sentinel violation kinds. A validator error wraps exactly one of
// these; match with errors.Is.
var (
	// ErrSeqOrder: sequence numbers not strictly increasing.
	ErrSeqOrder = errors.New("sequence not strictly increasing")
	// ErrTimeRegression: virtual time moved backwards within one
	// (run, thread) on a kernel-timed record.
	ErrTimeRegression = errors.New("virtual time moved backwards")
	// ErrClockRegression: a scope's logical clock moved backwards.
	ErrClockRegression = errors.New("logical clock moved backwards")
	// ErrDuplicateEnqueue: one event enqueued twice.
	ErrDuplicateEnqueue = errors.New("event enqueued twice")
	// ErrDuplicateTerminal: a second terminal record for an event
	// already retired.
	ErrDuplicateTerminal = errors.New("duplicate terminal state")
	// ErrAfterTerminal: a non-terminal lifecycle record after the
	// event's terminal record.
	ErrAfterTerminal = errors.New("lifecycle record after terminal state")
	// ErrConfirmBeforeEnqueue: confirmation for an event never enqueued.
	ErrConfirmBeforeEnqueue = errors.New("confirmation before enqueue")
	// ErrDispatchBeforeEnqueue: dispatch of an event never enqueued.
	ErrDispatchBeforeEnqueue = errors.New("dispatch before enqueue")
	// ErrDispatchBeforePolicy: dispatch without a prior policy decision.
	ErrDispatchBeforePolicy = errors.New("dispatch before policy decision")
	// ErrDispatchBeforeConfirm: dispatch without a prior confirmation.
	ErrDispatchBeforeConfirm = errors.New("dispatch before confirmation")
	// ErrTerminalBeforeEnqueue: shed/cancel/expire for an event never
	// enqueued.
	ErrTerminalBeforeEnqueue = errors.New("terminal record before enqueue")
	// ErrPanicOutsideDispatch: a panic-recovery record for an event that
	// was never dispatched.
	ErrPanicOutsideDispatch = errors.New("panic recovery outside a dispatch")
	// ErrOpenEvents: enqueued events never reached a terminal state
	// (strict mode only).
	ErrOpenEvents = errors.New("enqueued events never reached a terminal state")
	// ErrAccounting: dispatched+shed+cancelled+expired+open != enqueued.
	ErrAccounting = errors.New("terminal accounting broken")
)

// ValidationError is one lifecycle-invariant violation: the sentinel
// kind, the offending record's identity, and the detailed message.
type ValidationError struct {
	Kind  error  // one of the Err… sentinels
	Seq   uint64 // offending record's sequence number (0 for end-of-trace checks)
	Op    Op
	API   string
	Event uint64
	Scope int
	Msg   string
}

func (e *ValidationError) Error() string {
	if e.Seq == 0 && e.Op == 0 {
		return "trace: " + e.Msg
	}
	return fmt.Sprintf("trace: invalid record #%d (%s %s ev=%d scope=%d): %s",
		e.Seq, e.Op, e.API, e.Event, e.Scope, e.Msg)
}

// Unwrap exposes the sentinel kind to errors.Is.
func (e *ValidationError) Unwrap() error { return e.Kind }

// Report summarizes a validated trace.
type Report struct {
	Records  int `json:"records"`
	Enqueued int `json:"enqueued"`
	// Terminal-state accounting; when the trace is closed,
	// Dispatched+Shed+Cancelled+Expired == Enqueued.
	Dispatched int `json:"dispatched"`
	Shed       int `json:"shed"`
	Cancelled  int `json:"cancelled"`
	Expired    int `json:"expired"`
	// Open counts enqueued events with no terminal record (always 0 for
	// closed traces).
	Open int `json:"open"`
	// PolicyDecisions counts OpPolicy records (both per-event scheduling
	// decisions and per-call verdicts).
	PolicyDecisions int `json:"policy_decisions"`
	// Scopes and Threads count the distinct kernelized scopes and
	// threads observed.
	Scopes  int `json:"scopes"`
	Threads int `json:"threads"`
}

// evState tracks one event's lifecycle during replay.
type evState struct {
	enqueued  bool
	policied  bool
	confirmed bool
	terminal  Op
}

// eventSlack bounds how far past a scope's dense event table an event
// ID may land and still extend it. The kernel numbers each scope's
// events 1, 2, 3, ... and records each as it numbers it, so its records
// land inside; an ID further out goes to the scope's sparse map. No ID
// taken from the stream sizes the table: a record grows it by at most
// eventSlack entries of 4 bytes.
const eventSlack = 16

// vScope is the validator's state for one scope: its logical-clock
// high water and its events' lifecycles, by value.
type vScope struct {
	lc     sim.Time
	timed  bool      // lc holds a kernel record's reading
	dense  []evState // events 1..len(dense), by ID-1
	sparse map[uint64]evState
}

// get returns event id's state (zero before its first record).
func (sc *vScope) get(id uint64) evState {
	if i := id - 1; i < uint64(len(sc.dense)) {
		return sc.dense[i]
	}
	return sc.sparse[id]
}

// put stores event id's state.
func (sc *vScope) put(id uint64, st evState) {
	i := id - 1
	if i >= uint64(len(sc.dense)) && i < uint64(len(sc.dense))+eventSlack {
		// One zero entry at a time: under the race detector the
		// compiler does not fuse append(s, make(...)...), and the
		// make would allocate on every call.
		for uint64(len(sc.dense)) <= i {
			sc.dense = append(sc.dense, evState{})
		}
	}
	if i < uint64(len(sc.dense)) {
		sc.dense[i] = st
		return
	}
	if sc.sparse == nil {
		sc.sparse = make(map[uint64]evState)
	}
	sc.sparse[id] = st
}

// open counts the scope's enqueued events with no terminal record.
func (sc *vScope) open() int {
	n := 0
	for _, st := range sc.dense {
		if st.enqueued && st.terminal == 0 {
			n++
		}
	}
	for _, st := range sc.sparse {
		if st.enqueued && st.terminal == 0 {
			n++
		}
	}
	return n
}

// vThread is the validator's state for one (run, thread): the virtual
// time of its last kernel record.
type vThread struct {
	vt    sim.Time
	timed bool
}

// StreamValidator replays a trace record by record and asserts the
// kernel's lifecycle invariants:
//
//  1. Sequence numbers are strictly increasing — the trace is a total
//     order.
//  2. Kernel-record virtual timestamps are monotone per (run, thread) —
//     a session may trace many environments, each with its own simulator
//     and thread numbering (native, access and edge records may carry
//     in-task cursor times and are exempt) — and each scope's logical
//     clock never moves backwards.
//  3. Every event-scoped record belongs to an event that was enqueued
//     exactly once, and no lifecycle record follows the event's terminal
//     record (except the panic record of a callback that panicked inside
//     its dispatch).
//  4. Every enqueued event reaches exactly one terminal state —
//     dispatched, shed, cancelled, or expired — so per scope
//     dispatched + shed + cancelled + expired == enqueued. (Traces of
//     horizon-bounded runs satisfy this after Session.Close, which
//     retires still-open events with synthetic "run-end" cancels;
//     NewStreamValidator(true) relaxes the check for raw, unclosed
//     traces.)
//  5. No event dispatches without a prior policy decision and a prior
//     confirmation.
//
// It is a Sink, so a session that retains nothing can still be
// validated. Observe is sticky on the first violation; Finish runs the
// end-of-trace accounting checks and returns the report. Violations are
// typed: every error is a *ValidationError wrapping one of the Err…
// sentinels, so callers (and tests) can distinguish, say, a duplicated
// terminal state from a dispatch-before-confirm with errors.Is instead
// of string matching.
type StreamValidator struct {
	allowOpen bool

	rep     Report
	threads lastKey[uint64, vThread] // per (run, thread)
	scopes  lastKey[int, vScope]     // per nonzero scope
	lastSeq uint64
	err     error
}

// NewStreamValidator returns a streaming validator; allowOpen accepts
// traces whose tail leaves events enqueued but unretired.
func NewStreamValidator(allowOpen bool) *StreamValidator {
	return &StreamValidator{allowOpen: allowOpen}
}

// Observe folds one record into the replay. Violations latch: once a
// record fails, later records are ignored and Finish reports the first
// error.
func (v *StreamValidator) Observe(r Record) {
	if v.err != nil {
		return
	}
	v.err = v.observe(&r)
}

func (v *StreamValidator) observe(r *Record) error {
	fail := func(kind error, format string, args ...any) error {
		return &ValidationError{
			Kind: kind, Seq: r.Seq, Op: r.Op, API: r.API,
			Event: r.Event, Scope: r.Scope,
			Msg: fmt.Sprintf(format, args...),
		}
	}

	v.rep.Records++
	if r.Seq <= v.lastSeq {
		return fail(ErrSeqOrder, "sequence not strictly increasing (prev %d)", v.lastSeq)
	}
	v.lastSeq = r.Seq
	th := v.threads.at(uint64(r.Run)<<32 | uint64(uint32(r.Thread)))
	var sc *vScope
	if r.Scope != 0 {
		sc = v.scopes.at(r.Scope)
	}

	if !r.Op.cursorTimed() {
		if th.timed && r.VT < th.vt {
			return fail(ErrTimeRegression, "virtual time moved backwards on run %d thread %d (%s < %s)",
				r.Run, r.Thread, fmtVT(r.VT), fmtVT(th.vt))
		}
		th.vt, th.timed = r.VT, true
		if sc != nil {
			if sc.timed && r.LC < sc.lc {
				return fail(ErrClockRegression, "logical clock moved backwards on scope %d (%s < %s)",
					r.Scope, fmtVT(r.LC), fmtVT(sc.lc))
			}
			sc.lc, sc.timed = r.LC, true
		}
	}

	switch r.Op {
	case OpPolicy:
		v.rep.PolicyDecisions++
	case OpInstall, OpNative, OpQuarantine, OpAccess, OpEdge:
		// Not event-scoped.
		return nil
	}
	if r.Event == 0 || r.Scope == 0 {
		return nil
	}

	st := sc.get(r.Event)
	// A recovered panic is the one lifecycle record that follows its
	// event's terminal dispatch: the callback runs after the dispatch
	// record and panics inside it.
	if st.terminal != 0 && r.Op != OpPolicy && r.Op != OpPanic {
		if r.Op.Terminal() {
			return fail(ErrDuplicateTerminal, "terminal %s after terminal %s", r.Op, st.terminal)
		}
		return fail(ErrAfterTerminal, "lifecycle record after terminal %s", st.terminal)
	}
	switch r.Op {
	case OpPolicy:
		st.policied = true
	case OpEnqueue:
		if st.enqueued {
			return fail(ErrDuplicateEnqueue, "event enqueued twice")
		}
		st.enqueued = true
		v.rep.Enqueued++
	case OpConfirm:
		if !st.enqueued {
			return fail(ErrConfirmBeforeEnqueue, "confirmation for an event never enqueued")
		}
		st.confirmed = true
	case OpDispatch:
		if !st.enqueued {
			return fail(ErrDispatchBeforeEnqueue, "dispatch of an event never enqueued")
		}
		if !st.policied {
			return fail(ErrDispatchBeforePolicy, "dispatch without a prior policy decision")
		}
		if !st.confirmed {
			return fail(ErrDispatchBeforeConfirm, "dispatch without a prior confirmation")
		}
		st.terminal = OpDispatch
		v.rep.Dispatched++
	case OpShed, OpCancel, OpExpire:
		if !st.enqueued {
			return fail(ErrTerminalBeforeEnqueue, "terminal %s for an event never enqueued", r.Op)
		}
		st.terminal = r.Op
		switch r.Op {
		case OpShed:
			v.rep.Shed++
		case OpCancel:
			v.rep.Cancelled++
		case OpExpire:
			v.rep.Expired++
		}
	case OpPanic:
		if st.terminal != OpDispatch {
			return fail(ErrPanicOutsideDispatch, "panic recovery outside a dispatch")
		}
	}
	sc.put(r.Event, st)
	return nil
}

// Finish runs the end-of-trace accounting checks and returns the
// report, or the first violation observed.
func (v *StreamValidator) Finish() (*Report, error) {
	if v.err != nil {
		return nil, v.err
	}
	rep := v.rep
	for _, sc := range v.scopes.m {
		rep.Open += sc.open()
	}
	rep.Scopes = v.scopes.len()
	rep.Threads = v.threads.len()

	if rep.Open > 0 && !v.allowOpen {
		return nil, &ValidationError{Kind: ErrOpenEvents, Msg: fmt.Sprintf(
			"%d enqueued events never reached a terminal state (close the session, or use NewStreamValidator(true) for raw traces)", rep.Open)}
	}
	if got := rep.Dispatched + rep.Shed + rep.Cancelled + rep.Expired + rep.Open; got != rep.Enqueued {
		return nil, &ValidationError{Kind: ErrAccounting, Msg: fmt.Sprintf(
			"terminal accounting broken: dispatched+shed+cancelled+expired+open = %d, enqueued = %d", got, rep.Enqueued)}
	}
	return &rep, nil
}

// Validate replays records (in the given order) against the strict
// invariants (no open events), returning a summary report. The first
// violation aborts with an error naming the offending record.
func Validate(recs []Record) (*Report, error) {
	sv := NewStreamValidator(false)
	for _, r := range recs {
		sv.Observe(r)
	}
	return sv.Finish()
}
