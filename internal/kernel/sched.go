package kernel

import (
	"fmt"

	"jskernel/internal/browser"
	"jskernel/internal/sim"
	"jskernel/internal/trace"
	"jskernel/internal/webnet"
)

// This file is the kernel's two-stage scheduler and dispatcher (§III-D):
// prediction chains, registration with overload shedding, confirmation,
// cancellation, the drain loop with its watchdog, and panic-isolated
// user dispatch.

// predict returns the logical time to predict for a new event of an API
// kind, based exclusively on kernel-visible state (never real time).
func (k *Kernel) predict(api string, requested sim.Duration) sim.Time {
	return k.clock.Now() + k.shared.policy.PredictDelay(api, requested)
}

// nextMessagePred assigns strictly increasing predicted times to incoming
// messages with no identifiable sender, so their dispatch order and
// apparent timing stay deterministic.
func (k *Kernel) nextMessagePred() sim.Time {
	base := k.clock.Now()
	if k.lastMsgPred > base {
		base = k.lastMsgPred
	}
	k.lastMsgPred = base + k.shared.policy.PredictDelay("message", 0)
	return k.lastMsgPred
}

// nextOutgoingPred is the sender-side component of a message delivery
// prediction: a strictly increasing chain over the SENDER's logical clock,
// which is secret-independent. A per-thread nanosecond offset keeps
// predictions from different senders from colliding, so tie-breaks never
// depend on real arrival order.
func (k *Kernel) nextOutgoingPred() sim.Time {
	base := k.clock.Now()
	if k.lastOutPred > base {
		base = k.lastOutPred
	}
	k.lastOutPred = base + k.shared.policy.PredictDelay("message", 0)
	return k.lastOutPred + sim.Duration(k.g.Thread().ID())*sim.Nanosecond
}

// nextInboundPred combines the sender's chained prediction with the
// receiver's own message chain. The receiver chain guarantees at most one
// message dispatches per logical slot — which is what pins the Listing 1
// implicit-clock count — while the sender floor keeps cross-sender order
// independent of real arrival order. Full cross-thread determinism would
// require conservative lookahead synchronization (Chandy–Misra style)
// that neither the paper's prototype nor this reproduction implements;
// the residual channel is the coarse logical-slot position of a message
// relative to receiver-local events, bounded to one quantum (see
// DESIGN.md §7).
func (k *Kernel) nextInboundPred(senderPred sim.Time) sim.Time {
	r := k.nextMessagePred()
	if senderPred > r {
		k.lastMsgPred = senderPred
		return senderPred
	}
	return r
}

// confirm moves a pending event to ready and lets the dispatcher run
// (paper §III-D1, confirmation stage).
func (k *Kernel) confirm(ev *Event) {
	if ev.Status != StatusPending {
		return
	}
	ev.Status = StatusReady
	if k.shared.tracer != nil {
		k.emit(trace.Record{Op: trace.OpConfirm, API: ev.API, Event: uint64(ev.ID), Predicted: ev.Predicted})
	}
	k.drain()
}

// confirmRef confirms an event registered with a Callback through the
// reference its native completion kept, handing the callback its final
// arguments. Nothing happens once the event has left the queue and its
// storage was reused.
func (k *Kernel) confirmRef(r evRef, args any) {
	ev := r.get()
	if ev == nil {
		return
	}
	if ev.Status == StatusPending {
		ev.Args = args
	}
	k.confirm(ev)
}

// confirmMessage confirms a message event with the delivered message.
func (k *Kernel) confirmMessage(ev *Event, m browser.MessageEvent) {
	if ev.Status == StatusPending {
		ev.msg = m
	}
	k.confirm(ev)
}

// cancelEvent implements §III-D2's three cancellation cases: pending →
// cancel (native side handled by caller); ready-but-undispatched → mark
// cancelled; already dispatched → ignore.
func (k *Kernel) cancelEvent(ev *Event) {
	if ev == nil || ev.Status == StatusDone || ev.Status == StatusCancelled {
		return
	}
	ev.Status = StatusCancelled
	if k.shared.tracer != nil {
		k.emit(trace.Record{Op: trace.OpCancel, API: ev.API, Event: uint64(ev.ID), Predicted: ev.Predicted, Action: "cancel"})
	}
}

// drain is the dispatcher (§III-D3): release queue-head events in
// predicted-time order. A pending head blocks everything behind it, which
// is precisely what makes observable interleavings secret-independent.
// The dispatcher survives whatever user space throws at it: a pending
// head that never confirms is force-expired by the watchdog, and a user
// callback that panics is isolated (and, past a threshold, its whole
// context quarantined) without ever unwinding the dispatch loop. Every
// popped event goes back to the pool once its callback has returned.
func (k *Kernel) drain() {
	if k.dispatching {
		return
	}
	k.dispatching = true
	defer func() { k.dispatching = false }()
	for {
		head := k.queue.Top()
		if head == nil {
			return
		}
		if head.Status == StatusPending {
			k.armWatchdog(head)
			return
		}
		k.queue.Pop()
		k.disarmWatchdog(head)
		if head.Status == StatusCancelled {
			k.queue.release(head)
			continue
		}
		k.clock.TickTo(head.Predicted)
		head.Status = StatusDone
		if k.shared.tracer != nil {
			k.emit(trace.Record{Op: trace.OpDispatch, API: head.API, Event: uint64(head.ID), Predicted: head.Predicted, Depth: k.queue.Len()})
		}
		if head.kind != kindCallback || head.Callback != nil {
			k.dispatchUser(head)
		}
		k.queue.release(head)
	}
}

// dispatchUser runs one released event's user callback under panic
// isolation. A panic is recovered and traced; after maxCallbackPanics
// the context is quarantined — its later callbacks are suppressed while
// its events keep draining, so a hostile page can never wedge the
// dispatcher or take the process down.
func (k *Kernel) dispatchUser(ev *Event) {
	if k.quarantined {
		return
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		k.panics++
		k.emit(trace.Record{Op: trace.OpPanic, API: ev.API, Event: uint64(ev.ID), Action: string(ActionIsolate), Reason: fmt.Sprintf("recovered user-callback panic: %v", r)})
		if k.panics >= maxCallbackPanics {
			k.quarantined = true
			k.emit(trace.Record{Op: trace.OpQuarantine, Action: string(ActionQuarantine), Reason: fmt.Sprintf("context quarantined after %d user-callback panics (last: %v)", k.panics, r)})
		}
	}()
	if f := k.shared.callbackFault; f != nil && f(ev.API) {
		panic("fault: injected user-callback panic")
	}
	switch ev.kind {
	case kindTimeout:
		ev.timeout(k.g)
	case kindFrame:
		ev.frame(k.g, k.clock.DisplayMillis())
	case kindMessage:
		if ev.stub != nil {
			ev.stub.deliver(k.g, ev.msg)
		} else {
			k.deliverUserMessage(k.g, ev.msg)
		}
	case kindTicker:
		ev.ticker.fire(k.g)
	default:
		ev.Callback(k.g, ev.Args)
	}
}

// armWatchdog schedules a force-expiry alarm for a pending queue head.
// If the event's confirmation never arrives within WatchdogDeadline
// (virtual time), the event is cancelled, the expiry traced, and the
// queue drained past it — registered-but-never-confirmed events cannot
// wedge the context forever. Confirmation or dispatch disarms the alarm.
// Every alarm of a kernel runs the kernel's one expire function.
func (k *Kernel) armWatchdog(ev *Event) {
	if ev.watchdogArmed {
		return
	}
	ev.watchdogArmed = true
	s := k.g.Browser().Sim
	ev.watchdogID = s.Schedule(s.Now()+WatchdogDeadline, "kernel-watchdog", k.watchdog)
}

// disarmWatchdog cancels a popped event's pending alarm, if any.
func (k *Kernel) disarmWatchdog(ev *Event) {
	if !ev.watchdogArmed {
		return
	}
	ev.watchdogArmed = false
	k.g.Browser().Sim.Cancel(ev.watchdogID)
}

// expire is the kernel's watchdog callback. Alarms armed at one virtual
// time fire in whatever order the simulator's Chooser picks, so the
// expiring event is the one whose alarm is firing, not the oldest. An
// armed event stays queued until its alarm fires or it pops, and
// expiries are rare, so a scan of the queue finds it.
func (k *Kernel) expire() {
	id := k.g.Browser().Sim.Firing()
	for _, ev := range k.queue.heap {
		if !ev.watchdogArmed || ev.watchdogID != id {
			continue
		}
		ev.watchdogArmed = false
		if ev.Status != StatusPending {
			return
		}
		ev.Status = StatusCancelled
		if k.shared.tracer != nil {
			k.emit(trace.Record{Op: trace.OpExpire, API: ev.API, Event: uint64(ev.ID), Predicted: ev.Predicted, Action: string(ActionExpire), Reason: fmt.Sprintf("watchdog: confirmation never arrived within %v", WatchdogDeadline)})
		}
		k.drain()
		return
	}
}

// newEvent registers an event with overload shedding: once the context's
// queue depth hits MaxQueueDepth, the registration is refused — the
// returned event is born cancelled, unqueued and unpooled, so
// confirmations for it are no-ops and its callback never runs. Every
// shed is traced. The caller sets the event's callback.
func (k *Kernel) newEvent(api string, predicted sim.Time) *Event {
	if k.queue.Len() >= MaxQueueDepth {
		ev := &Event{ID: k.queue.AllocID(), API: api, Status: StatusCancelled, Predicted: predicted, k: k, index: -1, slot: -1}
		if k.shared.tracer != nil {
			k.emit(trace.Record{Op: trace.OpPolicy, API: api, Event: uint64(ev.ID), Predicted: predicted, Action: "schedule"})
			k.emit(trace.Record{Op: trace.OpEnqueue, API: api, Event: uint64(ev.ID), Predicted: predicted, Depth: k.queue.Len()})
			k.emit(trace.Record{Op: trace.OpShed, API: api, Event: uint64(ev.ID), Predicted: predicted, Action: string(ActionShed), Reason: fmt.Sprintf("overload: queue depth at bound (%d)", MaxQueueDepth)})
		}
		return ev
	}
	ev := k.queue.NewEvent(api, predicted, nil)
	ev.k = k
	if k.shared.tracer != nil {
		k.emit(trace.Record{Op: trace.OpPolicy, API: api, Event: uint64(ev.ID), Predicted: predicted, Action: "schedule"})
		k.emit(trace.Record{Op: trace.OpEnqueue, API: api, Event: uint64(ev.ID), Predicted: predicted, Depth: k.queue.Len()})
	}
	return ev
}

// callCtx assembles the policy evaluation context for a call from this
// scope.
func (k *Kernel) callCtx(api, url string) CallContext {
	b := k.g.Browser()
	ctx := CallContext{
		API:         api,
		URL:         url,
		ThreadID:    k.g.Thread().ID(),
		InWorker:    k.g.IsWorkerScope(),
		PrivateMode: b.PrivateMode,
		TornDown:    b.DocumentTornDown(),
	}
	if url != "" {
		ctx.CrossOrigin = !webnet.SameOrigin(url, b.Origin)
	}
	if ctx.InWorker {
		ctx.WorkerID = k.workerID()
	}
	return ctx
}
