package browser

import "jskernel/internal/sim"

// This file holds the slot tables behind typed tasks. A timer lives in
// its registering scope's timer table (global.go) and a message in
// flight lives in its receiving thread's letter table (below). Each
// slot carries a generation, and a typed task names its payload by slot
// and generation, so registering a timer or posting a message fills a
// recycled slot instead of building a closure, and a handle to a slot
// that was cleared and reused resolves to nothing.

// slotHandle packs a table slot and its occupant's generation into one
// handle. The low 32 bits hold the slot plus one and the high bits the
// generation, which stays below 2^31, so a handle read as an int is
// positive and never 0.
func slotHandle(slot int32, gen uint32) uint64 { return uint64(gen)<<32 | uint64(slot+1) }

// splitHandle undoes slotHandle. A handle that slotHandle never made may
// yield a negative or out-of-range slot; callers bound-check it.
func splitHandle(h uint64) (slot int32, gen uint32) { return int32(uint32(h)) - 1, uint32(h >> 32) }

// nextGen advances a slot's generation, wrapping within 31 bits.
func nextGen(gen uint32) uint32 {
	if gen >= 1<<31-1 {
		return 1
	}
	return gen + 1
}

// route says how a delivered letter reaches its handler. Each route is
// one of the native message paths: the delivery task runs the same
// steps, in the same order, as the closure it replaces.
type route uint8

const (
	routeSelf          route = iota + 1 // window → itself
	routeToWorker                       // parent → worker
	routeToParent                       // worker → parent
	routeAfterTeardown                  // worker → parent, into a torn-down document
	routeTransfer                       // worker → parent, with a transferred buffer
	routeToFrame                        // window → frame
	routeFromFrame                      // frame → window
	routeHandler                        // parked message → a newly installed thread handler
	routeFrameHandler                   // parked message → a newly installed frame handler
)

// letter is one slot of a thread's letter table: a message in flight to
// the thread, with what its route needs to deliver it.
type letter struct {
	gen     uint32
	route   route
	msg     MessageEvent
	worker  *workerState
	frame   *frameState
	handler func(*Global, MessageEvent)
}

// postLetter takes a free letter slot for a message on route rt, queues
// its delivery at `at`, and returns the slot for the caller to fill in.
// The pointer is valid until the table next grows. A terminated thread
// takes no messages: postLetter returns nil.
func (t *Thread) postLetter(at sim.Time, rt route) *letter {
	if t.terminated {
		return nil
	}
	var slot int32
	if n := len(t.freeLetters); n > 0 {
		slot = t.freeLetters[n-1]
		t.freeLetters = t.freeLetters[:n-1]
	} else {
		slot = int32(len(t.letters))
		t.letters = append(t.letters, letter{gen: 1})
	}
	l := &t.letters[slot]
	l.route = rt
	t.post(task{arrival: at, handle: slotHandle(slot, l.gen)})
	return l
}

// deliverLetter frees letter h's slot and delivers it along its route.
func (t *Thread) deliverLetter(h uint64) {
	slot, gen := splitHandle(h)
	if slot < 0 || int(slot) >= len(t.letters) || t.letters[slot].gen != gen {
		return
	}
	ls := &t.letters[slot]
	l := letter{route: ls.route, msg: ls.msg, worker: ls.worker, frame: ls.frame, handler: ls.handler}
	*ls = letter{gen: nextGen(gen)}
	t.freeLetters = append(t.freeLetters, slot)
	b := t.b
	g := t.global
	switch l.route {
	case routeSelf:
		b.trace(TraceEvent{Kind: TraceMessageDelivered, ThreadID: t.id, Detail: "self"})
		t.deliverMessage(l.msg)
	case routeToWorker:
		st := l.worker
		st.inFlight--
		if fh := b.faults; fh != nil && fh.WorkerDelivery != nil && fh.WorkerDelivery(st.id) {
			// Injected crash mid-message: the worker thread dies without
			// any terminate bookkeeping. Its pending fetches stay pending
			// forever (the kernel watchdog's job to reap), and the message
			// is lost. The trace detail is distinct from user-initiated
			// termination so CVE detectors never mistake a crash for an
			// exploit step.
			b.trace(TraceEvent{Kind: TraceFaultInjected, ThreadID: st.thread.id, WorkerID: st.id, Detail: "worker-crash"})
			st.thread.terminate()
			return
		}
		b.trace(TraceEvent{Kind: TraceMessageDelivered, ThreadID: st.thread.id, WorkerID: st.id, Detail: "to-worker"})
		st.thread.deliverMessage(l.msg)
	case routeToParent, routeAfterTeardown:
		st := l.worker
		st.inFlight--
		detail := "to-parent"
		if l.route == routeAfterTeardown {
			detail = "after-teardown"
			// Hazard witness: the delivery dereferences the torn-down
			// document's freed state (CVE-2010-4576).
			b.access(st.parent, "doc", 0, AccessWrite|AccessGuardian)
			b.access(st.parent, "doc", 0, 0)
		}
		b.trace(TraceEvent{Kind: TraceMessageDelivered, ThreadID: st.parent.id, WorkerID: st.id, Detail: detail})
		if st.released {
			// Handle was GC'd; vulnerable engines still touch it (the
			// CVE-2013-6646 hazard witness).
			b.access(st.parent, "worker", int64(st.id), AccessWrite|AccessGuardian)
			b.access(st.parent, "worker", int64(st.id), 0)
			b.trace(TraceEvent{Kind: TraceMessageDelivered, ThreadID: st.parent.id, WorkerID: st.id, Detail: "released-use"})
		}
		if st.handleOnMessage != nil {
			st.handleOnMessage(g, l.msg)
		}
	case routeTransfer:
		st := l.worker
		st.inFlight--
		b.trace(TraceEvent{Kind: TraceMessageDelivered, ThreadID: st.parent.id, WorkerID: st.id, Detail: "transfer"})
		if st.handleOnMessage != nil {
			st.handleOnMessage(g, l.msg)
		}
	case routeToFrame:
		st := l.frame
		if !st.attached {
			return
		}
		b.trace(TraceEvent{Kind: TraceMessageDelivered, ThreadID: st.parent.thread.id, Detail: "to-frame", Value: int64(st.id)})
		st.deliver(l.msg)
	case routeFromFrame:
		st := l.frame
		b.trace(TraceEvent{Kind: TraceMessageDelivered, ThreadID: st.parent.thread.id, Detail: "from-frame", Value: int64(st.id)})
		st.parent.thread.deliverMessage(l.msg)
	case routeHandler:
		l.handler(g, l.msg)
	case routeFrameHandler:
		if l.frame.attached {
			l.handler(l.frame.scope, l.msg)
		}
	}
}
