// Package kernel implements JSKERNEL, the paper's contribution: a
// privileged layer between website JavaScript and the browser's native
// APIs. Kernel objects (an event queue and a logical clock), a two-stage
// scheduler (registration with a predicted time, then confirmation), a
// dispatcher that releases events strictly in predicted-time order, and a
// thread manager wrapping web workers together guarantee that everything
// user space can observe — callback order and clock readings — is a
// function of predicted (logical) times only, never of real execution
// times. That severs every implicit-clock side channel and lets
// per-vulnerability policies break the triggering sequences of web
// concurrency attacks.
package kernel

import (
	"container/heap"
	"fmt"

	"jskernel/internal/browser"
	"jskernel/internal/sim"
)

// EventID names a kernel event (paper §III-C1).
type EventID uint64

// Status is a kernel event's lifecycle state.
type Status int

// Event lifecycle states. Registration creates a Pending event; the native
// callback confirms it (Ready); the dispatcher runs and retires it (Done);
// user cancellation marks it Cancelled.
const (
	StatusPending Status = iota + 1
	StatusReady
	StatusCancelled
	StatusDone
)

// String names the status for diagnostics.
func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusReady:
		return "ready"
	case StatusCancelled:
		return "cancelled"
	case StatusDone:
		return "done"
	default:
		return "invalid"
	}
}

// eventKind says which typed callback an event holds.
type eventKind uint8

const (
	kindCallback eventKind = iota // Callback and Args (fetches, script and image loads)
	kindTimeout                   // setTimeout: timeout(g)
	kindFrame                     // requestAnimationFrame: frame(g, clock)
	kindMessage                   // onmessage: msg, through stub when set
	kindTicker                    // setInterval and tick chains: ticker.fire(g)
)

// ticker is a repeating event source (an interval or a tick chain) whose
// events dispatch by calling back into it.
type ticker interface {
	fire(g *browser.Global)
}

// Event is one kernel-scheduled occurrence: a timer expiry, an animation
// frame, a message delivery, a fetch completion.
//
// Events are pooled per queue. Once the dispatcher has popped an event
// and its callback has returned, the event's storage goes back to the
// queue's free list with its generation advanced, and a later
// registration reuses it. So whatever keeps an event past its dispatch
// (a native timer, a message in flight, an interval or tick chain) keeps
// its token too, and acts on the event only while the token matches.
type Event struct {
	ID        EventID
	API       string // registration type, e.g. "setTimeout", "onmessage"
	Status    Status
	Predicted sim.Time // logical time the scheduler assigned

	// Callback runs when the dispatcher releases an event registered
	// with one (fetches, script and image loads). Confirmation fills in
	// Args (and, for multi-callback registrations such as
	// onload/onerror, selects which callback survives). Timer, frame,
	// message and tick events hold their callback in typed form instead.
	Callback func(g *browser.Global, args any)
	Args     any

	k        *Kernel // registering kernel; nil for events made by NewEvent alone
	kind     eventKind
	timeout  func(*browser.Global)
	frame    func(*browser.Global, float64)
	ticker   ticker
	msg      browser.MessageEvent // a confirmed message's payload
	stub     *WorkerStub          // worker→main message: deliver through the stub
	nativeID int                  // native timer or frame ID (timeouts and frames)

	seq   uint64
	index int    // heap index, -1 when not queued
	slot  int32  // pool slot; -1 for an unpooled (shed) event
	gen   uint32 // generation of the slot's occupant

	// Watchdog bookkeeping: while this event is a pending queue head, a
	// simulator alarm is armed to force-expire it if confirmation never
	// arrives (see Kernel.armWatchdog).
	watchdogArmed bool
	watchdogID    sim.EventID
}

// token identifies this event's current occupancy of its storage: the
// pool slot and generation, packed so that read as an int it is positive
// and never 0. An unpooled event's token is 0. The kernel hands a timer
// event's token to the page as the timer's ID.
func (ev *Event) token() uint64 { return uint64(ev.gen)<<32 | uint64(uint32(ev.slot+1)) }

// Fire is the native confirmation of a timer or frame event: the browser
// calls it when the native timer armed for the event expires. A token
// that no longer matches means the event was retired (expired by the
// watchdog, then drained) and its storage reused, so the late firing
// confirms nothing.
func (ev *Event) Fire(token uint64) {
	if ev.token() == token {
		ev.k.confirm(ev)
	}
}

// evRef is a generation-checked reference to a pooled event: it resolves
// to the event only while the event's storage holds the occupant the
// reference was taken from.
type evRef struct {
	ev    *Event
	token uint64
}

func refOf(ev *Event) evRef { return evRef{ev: ev, token: ev.token()} }

// get returns the referenced event, or nil once its storage moved on.
func (r evRef) get() *Event {
	if r.ev == nil || r.ev.token() != r.token {
		return nil
	}
	return r.ev
}

// nextGen advances a pool slot's generation, wrapping within 31 bits so
// tokens stay positive as ints.
func nextGen(gen uint32) uint32 {
	if gen >= 1<<31-1 {
		return 1
	}
	return gen + 1
}

// EventQueue is the kernel's priority queue of events ordered by
// (Predicted, registration sequence). It supports the paper's push / pop /
// top / remove / lookup API, and it owns the pool its events come from.
type EventQueue struct {
	heap   eventHeap
	pool   []*Event // every pooled event, indexed by slot
	free   []int32  // slots whose events can be reused
	nextID EventID
	seq    uint64
}

// NewEventQueue returns an empty queue.
func NewEventQueue() *EventQueue { return &EventQueue{} }

// Len reports the number of queued events.
func (q *EventQueue) Len() int { return len(q.heap) }

// NewEvent registers a pending event with a predicted time and pushes
// it. Events must be created through here so IDs and tie-breaking
// sequence numbers stay unique. The event's storage comes from the
// queue's pool.
func (q *EventQueue) NewEvent(api string, predicted sim.Time, cb func(*browser.Global, any)) *Event {
	ev := q.alloc()
	q.nextID++
	q.seq++
	ev.ID = q.nextID
	ev.API = api
	ev.Status = StatusPending
	ev.Predicted = predicted
	ev.Callback = cb
	ev.seq = q.seq
	q.push(ev)
	return ev
}

// alloc takes an event from the free list, or grows the pool.
func (q *EventQueue) alloc() *Event {
	if n := len(q.free); n > 0 {
		slot := q.free[n-1]
		q.free = q.free[:n-1]
		return q.pool[slot]
	}
	ev := &Event{slot: int32(len(q.pool)), gen: 1, index: -1}
	q.pool = append(q.pool, ev)
	return ev
}

// release returns a popped event's storage to the pool. Advancing the
// generation makes every token taken from it stale; clearing the rest
// drops its callbacks and payload.
func (q *EventQueue) release(ev *Event) {
	if ev.slot < 0 {
		return
	}
	*ev = Event{slot: ev.slot, gen: nextGen(ev.gen), index: -1}
	q.free = append(q.free, ev.slot)
}

// queued returns the queued event a token names, or nil.
func (q *EventQueue) queued(token uint64) *Event {
	slot := int32(uint32(token)) - 1
	if slot < 0 || int(slot) >= len(q.pool) {
		return nil
	}
	ev := q.pool[slot]
	if ev.token() != token || ev.index < 0 {
		return nil
	}
	return ev
}

// AllocID reserves the next event ID without queueing anything. Shed
// registrations use it so even refused events are identifiable in the
// trace.
func (q *EventQueue) AllocID() EventID {
	q.nextID++
	return q.nextID
}

// push inserts an event into the heap.
func (q *EventQueue) push(ev *Event) { heap.Push(&q.heap, ev) }

// Top returns the earliest-predicted event without removing it, or nil.
func (q *EventQueue) Top() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
}

// Pop removes and returns the earliest-predicted event, or nil. The
// caller owns the popped event; the kernel's dispatcher releases it to
// the pool after dispatch.
func (q *EventQueue) Pop() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	ev, _ := heap.Pop(&q.heap).(*Event)
	return ev
}

// Validate checks the internal heap invariant; tests use it as a property
// oracle.
func (q *EventQueue) Validate() error {
	for i := range q.heap {
		l, r := 2*i+1, 2*i+2
		if l < len(q.heap) && q.heap.Less(l, i) {
			return fmt.Errorf("kernel: heap violation at %d/%d", i, l)
		}
		if r < len(q.heap) && q.heap.Less(r, i) {
			return fmt.Errorf("kernel: heap violation at %d/%d", i, r)
		}
		if q.heap[i].index != i {
			return fmt.Errorf("kernel: stale index at %d", i)
		}
	}
	return nil
}

// eventHeap orders events by (Predicted, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].Predicted != h[j].Predicted {
		return h[i].Predicted < h[j].Predicted
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev, ok := x.(*Event)
	if !ok {
		return
	}
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}
