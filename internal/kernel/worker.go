package kernel

import (
	"fmt"

	"jskernel/internal/browser"
	"jskernel/internal/webnet"
)

// WorkerStatus tracks a kernel thread's lifecycle (paper §III-E1: the
// thread object's status field).
type WorkerStatus string

// Kernel thread states.
const (
	StatusStarted WorkerStatus = "started" // kernel thread spawned
	StatusReadyW  WorkerStatus = "ready"   // user thread loaded
	StatusClosedW WorkerStatus = "closed"  // user-visibly terminated
)

// WorkerStub is the user-space stub for a worker (the paper's Proxy over
// the Worker object): every access is redirected through the kernel, which
// consults the policy before touching the native worker.
type WorkerStub struct {
	shared *Shared
	id     int
	src    string
	status WorkerStatus
	native browser.Worker

	onMessage func(*browser.Global, browser.MessageEvent)
	onError   func(*browser.Global, *browser.WorkerError)
	inbox     []browser.MessageEvent
}

var _ browser.Worker = (*WorkerStub)(nil)

// ID returns the worker's unique id.
func (w *WorkerStub) ID() int { return w.id }

// Src returns the worker's source name.
func (w *WorkerStub) Src() string { return w.src }

// Status returns the kernel thread's lifecycle state.
func (w *WorkerStub) Status() WorkerStatus { return w.status }

// Alive reports user-visible liveness: after a user-level Terminate the
// stub reports dead even when the kernel retains the native worker.
func (w *WorkerStub) Alive() bool { return w.status != StatusClosedW }

// Thread returns the worker's underlying (kernel-managed) thread.
func (w *WorkerStub) Thread() *browser.Thread { return w.native.Thread() }

// InFlight reports undelivered messages.
func (w *WorkerStub) InFlight() int { return w.native.InFlight() }

// NativeAlive reports whether the kernel still runs the native worker —
// true for retained/deferred terminations (tests use this to verify the
// CVE-2014-1488/2018-5092 policies).
func (w *WorkerStub) NativeAlive() bool { return w.native.Alive() }

// PostMessage sends data to the worker through the kernel scheduler. The
// delivery prediction comes from the SENDER (main) kernel's logical
// state, so dispatch order in the worker never depends on real execution
// time.
func (w *WorkerStub) PostMessage(data any) {
	if !w.Alive() {
		return
	}
	wk := w.shared.byThread[w.native.Thread().ID()]
	mk := w.shared.mainKernel()
	if wk == nil || mk == nil {
		w.native.PostMessage(data)
		return
	}
	ev := wk.newMessage(wk.nextInboundPred(mk.nextOutgoingPred()), nil)
	w.native.PostMessage(w.shared.userEnvelope(ev, data, 0))
}

// PostMessageTransfer sends data and a transferable to the worker.
func (w *WorkerStub) PostMessageTransfer(data any, buf *browser.SharedBuffer) {
	if !w.Alive() {
		return
	}
	wk := w.shared.byThread[w.native.Thread().ID()]
	mk := w.shared.mainKernel()
	if wk == nil || mk == nil {
		w.native.PostMessageTransfer(data, buf)
		return
	}
	ev := wk.newMessage(wk.nextInboundPred(mk.nextOutgoingPred()), nil)
	w.native.PostMessageTransfer(w.shared.userEnvelope(ev, data, 0), buf)
}

// SetOnMessage is the kernel trap on the worker's onmessage setter. The
// policy rejects assignment to terminated workers (CVE-2013-5602) before
// anything reaches the vulnerable native setter.
func (w *WorkerStub) SetOnMessage(cb func(*browser.Global, browser.MessageEvent)) {
	ctx := CallContext{API: "worker.onmessage", WorkerID: w.id, ThreadID: w.shared.mainThreadID(), WorkerTerminated: !w.Alive()}
	if v := w.shared.evaluate(ctx); v.Action == ActionDrop || v.Action == ActionDeny {
		return
	}
	if !w.Alive() {
		// Even under a permissive policy the kernel never touches native
		// state of a dead worker; the assignment is simply recorded.
		w.onMessage = cb
		return
	}
	w.onMessage = cb
	if cb != nil && len(w.inbox) > 0 {
		queued := w.inbox
		w.inbox = nil
		for _, m := range queued {
			cb(w.shared.mainGlobal(), m)
		}
	}
}

// SetOnError installs the parent-side error handler; the kernel wraps it
// so native error text never reaches user space unsanitized.
func (w *WorkerStub) SetOnError(cb func(*browser.Global, *browser.WorkerError)) {
	w.onError = cb
	if cb == nil {
		w.native.SetOnError(nil)
		return
	}
	w.native.SetOnError(func(g *browser.Global, err *browser.WorkerError) {
		cb(g, &browser.WorkerError{Message: ErrSanitized.Error()})
	})
}

// deliver hands a dispatched worker→main message to the user handler.
func (w *WorkerStub) deliver(g *browser.Global, m browser.MessageEvent) {
	if !w.Alive() && w.shared.deferredTerm[w.id] {
		// Message from a worker the user already terminated: drop.
		return
	}
	if w.onMessage == nil {
		w.inbox = append(w.inbox, m)
		return
	}
	w.onMessage(g, m)
}

// Terminate is policy-mediated: with pending fetches the native terminate
// is deferred until they drain (CVE-2018-5092); after a buffer transfer the
// native worker is retained forever (CVE-2014-1488); with undelivered
// messages it is deferred until delivery completes (CVE-2014-1719).
func (w *WorkerStub) Terminate() {
	if !w.Alive() {
		return
	}
	ctx := CallContext{
		API:              "worker.terminate",
		WorkerID:         w.id,
		ThreadID:         w.shared.mainThreadID(),
		PendingFetches:   w.shared.pendingFetch[w.id] > 0,
		InFlightMessages: w.native.InFlight() > 0 || w.native.Thread().QueueDepth() > 0,
		Transferred:      w.shared.transferred[w.id],
	}
	w.status = StatusClosedW
	switch v := w.shared.evaluate(ctx); v.Action {
	case ActionRetain:
		// Kernel keeps the thread alive indefinitely; the user-level
		// worker is gone but nothing is freed (Listing 4's cleanWorker
		// with !this.alive).
	case ActionDefer:
		w.shared.deferredTerm[w.id] = true
		w.shared.maybeFinishDeferredTerminate(w.id)
	default:
		w.native.Terminate()
	}
}

// Release is policy-mediated GC: while messages are in flight the kernel
// retains the handle (CVE-2013-6646).
func (w *WorkerStub) Release() {
	ctx := CallContext{
		API:              "worker.release",
		WorkerID:         w.id,
		ThreadID:         w.shared.mainThreadID(),
		InFlightMessages: w.native.InFlight() > 0,
	}
	if v := w.shared.evaluate(ctx); v.Action == ActionRetain || v.Action == ActionDefer || v.Action == ActionDrop {
		if w.native.InFlight() > 0 {
			return
		}
	}
	w.native.Release()
}

// kNewWorker is the kernel's worker constructor (the constructWorker path
// of Listing 5): policy first, then a kernel thread wrapping the user
// thread, registered with the thread manager.
func (k *Kernel) kNewWorker(src string) (browser.Worker, error) {
	ctx := k.callCtx("worker.new", src)
	if v := k.shared.evaluate(ctx); v.Action == ActionSanitize || v.Action == ActionDeny {
		if ctx.CrossOrigin {
			// Kernel-synthesized error with no cross-origin detail
			// (CVE-2014-1487 policy).
			return nil, fmt.Errorf("%w: worker creation", ErrSanitized)
		}
	}
	native, err := k.native.NewWorker(src)
	if err != nil {
		if werr, ok := err.(*browser.WorkerError); ok && !webnet.SameOrigin(werr.URL, k.g.Browser().Origin) {
			return nil, fmt.Errorf("%w: worker creation", ErrSanitized)
		}
		return nil, err
	}
	stub := &WorkerStub{
		shared: k.shared,
		id:     native.ID(),
		src:    src,
		status: StatusStarted,
		native: native,
	}
	k.shared.workers[stub.id] = stub
	// The worker's scope was installed on its new thread while the
	// native worker was built; from here on it knows its ID.
	if wk := k.shared.byThread[native.Thread().ID()]; wk != nil && wk.g.IsWorkerScope() {
		wk.wid = stub.id
	}
	// The kernel owns the handle's native message path; worker→main user
	// traffic is confirmed against pre-registered events.
	native.SetOnMessage(func(g *browser.Global, m browser.MessageEvent) {
		mk := k.shared.byThread[k.g.Browser().Main().ID()]
		if mk == nil {
			stub.deliver(g, m)
			return
		}
		mk.receive(m, stub)
	})
	stub.status = StatusReadyW
	// Kernel-space communication at thread creation (§III-E2): the parent
	// passes its logical clock to the new kernel thread. (The thread
	// source itself travels through the native worker bootstrap, the
	// second communication type.) The Wid names the sync-object key the
	// hb edge pairs on; clockExchange ignores it otherwise.
	k.emitEdge("sys", int64(stub.id), "rel")
	env := k.shared.newEnvelope()
	env.Kind, env.Op, env.Wid, env.Data = "sys", "clockExchange", stub.id, int64(k.clock.Now())
	native.PostMessage(env)
	return stub, nil
}

// userTerminatedWorker reports whether the worker owning a thread has been
// user-level terminated while the kernel retains it.
func (s *Shared) userTerminatedWorker(wid int) bool {
	stub, ok := s.workers[wid]
	return ok && !stub.Alive()
}

// maybeFinishDeferredTerminate completes a deferred termination once the
// worker has no pending fetches or undelivered messages.
func (s *Shared) maybeFinishDeferredTerminate(wid int) {
	if !s.deferredTerm[wid] {
		return
	}
	stub, ok := s.workers[wid]
	if !ok {
		return
	}
	if s.pendingFetch[wid] > 0 || stub.native.InFlight() > 0 {
		return
	}
	delete(s.deferredTerm, wid)
	stub.native.Terminate()
}

// mainThreadID returns the main thread's ID for trace attribution of
// stub calls (which always originate on the main thread).
func (s *Shared) mainThreadID() int {
	if k := s.mainKernel(); k != nil {
		return k.g.Thread().ID()
	}
	return 0
}

// mainGlobal returns the main thread's global object.
func (s *Shared) mainGlobal() *browser.Global {
	if k := s.mainKernel(); k != nil {
		return k.g
	}
	return nil
}

// mainKernel returns the window's kernel instance.
func (s *Shared) mainKernel() *Kernel { return s.main }
