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

// Event is one kernel-scheduled occurrence: a timer expiry, an animation
// frame, a message delivery, a fetch completion.
type Event struct {
	ID        EventID
	API       string // registration type, e.g. "setTimeout", "onmessage"
	Status    Status
	Predicted sim.Time // logical time the scheduler assigned

	// Callback runs when the dispatcher releases the event. Confirmation
	// fills in Args (and, for multi-callback registrations such as
	// onload/onerror, selects which callback survives).
	Callback func(g *browser.Global, args any)
	Args     any

	seq   uint64
	index int // heap index, -1 when not queued

	// timerID is the native timer or animation-frame ID whose entry in
	// the kernel's timer map names this event; 0 for other events.
	timerID int

	// Watchdog bookkeeping: while this event is a pending queue head, a
	// simulator alarm is armed to force-expire it if confirmation never
	// arrives (see Kernel.armWatchdog).
	watchdogArmed bool
	watchdogID    sim.EventID
}

// EventQueue is the kernel's priority queue of events ordered by
// (Predicted, registration sequence). It supports the paper's push / pop /
// top / remove / lookup API.
type EventQueue struct {
	heap   eventHeap
	byID   map[EventID]*Event
	nextID EventID
	seq    uint64
}

// NewEventQueue returns an empty queue.
func NewEventQueue() *EventQueue {
	return &EventQueue{byID: make(map[EventID]*Event)}
}

// Len reports the number of queued events.
func (q *EventQueue) Len() int { return len(q.heap) }

// NewEvent allocates a registered, pending event with a predicted time and
// pushes it. Events must be created through here so IDs and tie-breaking
// sequence numbers stay unique.
func (q *EventQueue) NewEvent(api string, predicted sim.Time, cb func(*browser.Global, any)) *Event {
	q.nextID++
	q.seq++
	ev := &Event{
		ID:        q.nextID,
		API:       api,
		Status:    StatusPending,
		Predicted: predicted,
		Callback:  cb,
		seq:       q.seq,
		index:     -1,
	}
	q.push(ev)
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
func (q *EventQueue) push(ev *Event) {
	heap.Push(&q.heap, ev)
	q.byID[ev.ID] = ev
}

// Top returns the earliest-predicted event without removing it, or nil.
func (q *EventQueue) Top() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
}

// Pop removes and returns the earliest-predicted event, or nil.
func (q *EventQueue) Pop() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	popped := heap.Pop(&q.heap)
	ev, ok := popped.(*Event)
	if !ok {
		return nil
	}
	delete(q.byID, ev.ID)
	return ev
}

// Lookup finds a queued event by ID.
func (q *EventQueue) Lookup(id EventID) (*Event, bool) {
	ev, ok := q.byID[id]
	return ev, ok
}

// Remove deletes an event from the queue regardless of its predicted time.
// It reports whether the event was queued.
func (q *EventQueue) Remove(id EventID) bool {
	ev, ok := q.byID[id]
	if !ok || ev.index < 0 {
		return false
	}
	heap.Remove(&q.heap, ev.index)
	delete(q.byID, id)
	return true
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
